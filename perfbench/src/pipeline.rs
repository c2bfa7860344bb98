//! The `pipeline` workload: the paper pipeline end to end
//! (`Experiment::run_with_threads` at the default scale on two worker
//! threads: world, NTP corpus, hitlist and CAIDA scans, backscan, alias
//! findings, tracking, geolocation), then the hitlist it collected
//! published into a store and read back by two closed-loop clients.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use v6addr::Prefix;
use v6bench::{config_for, Scale};
use v6hitlist::{Experiment, HitlistService};
use v6netsim::World;
use v6par::StageTiming;
use v6serve::{sample_present, QueryEngine, SnapshotBuilder};

use crate::corpus::new_since_table;
use crate::engine::{publish, read_metrics, run_clients, serve_layer, Budget, Clients, Slice};
use crate::report::{median, ratio, Delta, Report};
use crate::trace::{self, Tracer};
use crate::{Args, CLIENTS, LAYER_SUM_TOLERANCE};

/// Requests each client reads from the published hitlist per run.
const READS_PER_CLIENT: u64 = 200_000;
/// Timed runs made even when they overrun `--seconds`.
const MIN_RUNS: usize = 3;
/// Times each run publishes what it collected (`visible_*` samples).
const PUBLISHES: usize = 3;

/// The experiment's stage DAG after `world`, in a topological order:
/// `(stage, stages it waits for)`.
const DAG: [(&str, &[&str]); 9] = [
    ("corpus", &[]),
    ("ntp", &["corpus"]),
    ("hitlist", &[]),
    ("caida", &[]),
    ("backscan", &[]),
    ("wardrive", &[]),
    ("alias_findings", &["backscan", "hitlist", "ntp"]),
    ("tracking", &["corpus"]),
    ("geolocation", &["tracking", "wardrive"]),
];

/// Stages reported as `pipeline.<stage>_ms`.
const STAGES: [&str; 8] = [
    "world",
    "corpus",
    "ntp",
    "hitlist",
    "caida",
    "backscan",
    "alias_findings",
    "tracking",
];

/// Work counters that must repeat exactly for a seed, at any thread count.
const WORK: [&str; 6] = [
    "collect.observations",
    "scan.zmap6.probes",
    "scan.zmap6.responsive",
    "scan.yarrp.probes",
    "scan.alias.candidates",
    "scan.alias.detected",
];

fn stage_ms(timings: &[StageTiming], name: &str) -> f64 {
    timings
        .iter()
        .find(|t| t.name == name)
        .map_or(0.0, |t| t.wall.as_secs_f64() * 1e3)
}

/// The longest chain of stage walls through the DAG, `world` included.
fn critical_path_ms(timings: &[StageTiming]) -> f64 {
    let mut finish: BTreeMap<&str, f64> = BTreeMap::new();
    for (stage, deps) in DAG {
        let ready = deps.iter().map(|d| finish[d]).fold(0.0, f64::max);
        finish.insert(stage, ready + stage_ms(timings, stage));
    }
    stage_ms(timings, "world") + finish.values().copied().fold(0.0, f64::max)
}

/// What a run collected, as a hitlist to publish: every address of the
/// passive NTP dataset at its first-seen study week, with the aliased
/// prefixes the active hitlist campaign found.
struct Collected {
    entries: Vec<(u128, u32)>,
    aliases: Vec<Prefix>,
}

impl Collected {
    fn of(e: &Experiment) -> Collected {
        const WEEK_SECS: u64 = 7 * 86_400;
        let mut entries: Vec<(u128, u32)> = e
            .ntp
            .records()
            .iter()
            .map(|r| (u128::from(r.addr), (r.first.0 / WEEK_SECS) as u32))
            .collect();
        entries.sort_unstable();
        entries.dedup_by_key(|e| e.0);
        let service = HitlistService::from_campaign("pipeline hitlist", &e.hitlist.campaign);
        Collected {
            entries,
            aliases: service.aliased,
        }
    }

    fn fill(&self, b: &mut SnapshotBuilder) {
        for &(bits, week) in &self.entries {
            b.add_bits(bits, week);
        }
        for &prefix in &self.aliases {
            b.add_alias(prefix, 0);
        }
    }

    fn per_week(&self) -> Vec<u64> {
        let mut per_week = Vec::new();
        for &(_, w) in &self.entries {
            let w = w as usize;
            if per_week.len() <= w {
                per_week.resize(w + 1, 0);
            }
            per_week[w] += 1;
        }
        per_week
    }
}

struct Run {
    wall_s: f64,
    timings: Vec<StageTiming>,
    digest: u64,
    work: Vec<u64>,
    global: Delta,
    visible_ms: Vec<f64>,
    build_s: f64,
    clients: Clients,
    serve: Delta,
    store: Arc<v6serve::HitlistStore>,
}

fn run(seed: u64, threads: usize, tracer: &mut Tracer) -> Run {
    let before = v6obs::global().snapshot();
    let root = tracer.reserve();
    let t0 = Instant::now();
    let e = Experiment::run_with_threads(config_for(Scale::Default, seed), threads);
    let t1 = Instant::now();
    tracer.span("hitlist.experiment", t0, t1, root, 0);
    let global = Delta::between(&before, &v6obs::global().snapshot());
    let digest = e.artifact_digest();
    let timings = e.timings.clone();
    let corpus = Collected::of(&e);
    drop(e);

    let mut visible_ms = Vec::new();
    let mut served = None;
    for _ in 0..PUBLISHES {
        drop(served.take());
        let t2 = Instant::now();
        let (s, ()) = publish("pipeline", |b| corpus.fill(b));
        tracer.span("serve.publish", t2, Instant::now(), root, 0);
        visible_ms.push(s.visible_s * 1e3);
        served = Some(s);
    }
    let served = served.expect("published at least once");
    let engine = QueryEngine::new(Arc::clone(&served.store));
    let present = sample_present(&served.store.snapshot(), 65_536);
    let table = new_since_table(&corpus.per_week());
    let registry = served.store.metrics().registry();
    let serve_before = registry.snapshot();
    let t4 = Instant::now();
    let clients = run_clients(
        &engine,
        &present,
        &table,
        seed,
        &Budget::Requests(READS_PER_CLIENT),
        false,
    );
    let t5 = Instant::now();
    tracer.span("serve.reads", t4, t5, root, 0);
    tracer.span_as(root, "bench.run", t0, t5, 0, 0);
    Run {
        wall_s: (t1 - t0).as_secs_f64(),
        timings,
        digest,
        work: WORK.iter().map(|c| global.counter(c)).collect(),
        global,
        visible_ms,
        build_s: served.build_s,
        serve: Delta::between(&serve_before, &registry.snapshot()),
        clients,
        store: served.store,
    }
}

/// Counts the run's reads and checks it against the one-thread reference.
fn check_run(r: &Run, reference: &(u64, Vec<u64>), rep: &mut Report) {
    rep.ops(r.clients.requests, r.clients.failed);
    rep.check(r.digest == reference.0, || {
        format!(
            "artifact digest {:#x} differs from the one-thread {:#x}",
            r.digest, reference.0
        )
    });
    rep.check(r.work == reference.1, || {
        format!(
            "work counters {:?} differ from the one-thread {:?}",
            r.work, reference.1
        )
    });
    rep.check(r.store.snapshot().verify_integrity(), || {
        "published hitlist failed integrity".into()
    });
}

pub fn pipeline(args: &Args, rep: &mut Report) {
    let cfg = config_for(Scale::Default, args.seed);
    rep.record("scale", "\"default\"");
    rep.record("threads", CLIENTS);
    rep.record("reads_per_client", READS_PER_CLIENT);
    rep.record("fsync", "\"none: in-memory store\"");
    let mut setups = Vec::new();
    for _ in 0..if args.trace { 1 } else { 41 } {
        let t0 = Instant::now();
        let world = World::build(cfg.world.clone(), args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        drop(world);
    }
    rep.record("setups", setups.len());

    let mut off = Tracer::new(false, Instant::now(), 0);
    let reference = {
        let r = run(args.seed, 1, &mut off);
        rep.record("digest", format!("\"{:#018x}\"", r.digest));
        rep.record("addresses", r.store.snapshot().len());
        rep.ops(r.clients.requests, r.clients.failed);
        (r.digest, r.work)
    };

    if !args.trace {
        let t0 = Instant::now();
        let mut runs = Vec::new();
        while runs.len() < MIN_RUNS || t0.elapsed().as_secs() < args.seconds {
            let r = run(args.seed, CLIENTS, &mut off);
            check_run(&r, &reference, rep);
            runs.push(r);
        }
        rep.record("runs", runs.len());
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let visible: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.visible_ms.iter().copied())
            .collect();
        // Each run's read phase is one slice.
        let slices: Vec<Slice> = runs.into_iter().flat_map(|r| r.clients.slices).collect();
        read_metrics(rep, &slices);
        rep.set("setup_s", median(&setups));
        rep.set("wall_s", median(&walls));
        rep.visible(&visible);
    } else {
        let plain = run(args.seed, CLIENTS, &mut off);
        check_run(&plain, &reference, rep);
        let mut tracer = Tracer::new(true, Instant::now(), 1);
        let r = run(args.seed, CLIENTS, &mut tracer);
        check_run(&r, &reference, rep);
        for stage in STAGES {
            rep.set(format!("pipeline.{stage}_ms"), stage_ms(&r.timings, stage));
        }
        let wall_ms = r.wall_s * 1e3;
        let residual = (wall_ms - critical_path_ms(&r.timings)) / wall_ms;
        rep.set("pipeline.critical_path_residual_share", residual);
        rep.check(residual.abs() <= LAYER_SUM_TOLERANCE, || {
            format!("critical-path stage walls miss the pipeline wall by {residual:.4}")
        });
        let g = &r.global;
        let busy = g.sum_ns("par.pool.chunk_latency") as f64 / (r.wall_s * 1e9 * CLIENTS as f64);
        rep.set("par.busy_share", busy);
        rep.set("par.steals", g.counter("par.pool.steals") as f64);
        rep.set("ntp.observations", g.counter("collect.observations") as f64);
        let zmap = g.counter("scan.zmap6.probes") as f64;
        rep.set("scan.zmap6.probes", zmap);
        rep.set(
            "scan.zmap6.hit_share",
            ratio(g.counter("scan.zmap6.responsive") as f64, zmap),
        );
        rep.set("scan.yarrp.probes", g.counter("scan.yarrp.probes") as f64);
        rep.set(
            "scan.alias.detected_share",
            ratio(
                g.counter("scan.alias.detected") as f64,
                g.counter("scan.alias.candidates") as f64,
            ),
        );
        serve_layer(rep, &r.clients, &r.serve, &r.store, r.build_s);
        trace::finish(rep, args, &tracer.spans, r.wall_s / plain.wall_s - 1.0);
    }
}
