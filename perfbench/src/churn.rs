//! The `publish-churn` workload: one caller thread drives a 3-node,
//! R=2 `v6cluster` with streaming analytics on through weeks of address
//! churn. Each week is one `Cluster::publish` per partition, then
//! `pump_round` until every replica converged, then hedged reads of
//! live addresses.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use v6cluster::{Cluster, ClusterConfig, PublishOutcome, ReadStatus};
use v6store::format::AliasEntry;
use v6stream::{Analytics, SharedResolver};

use crate::corpus::{self, Churn};
use crate::hist::Hist;
use crate::report::{median, ratio, Delta, Report};
use crate::trace::{self, Span, Tracer};
use crate::{Args, LAYER_SUM_TOLERANCE, OUT_DIR};

const NODES: usize = 3;
const REPLICATION: usize = 2;
const CORPUS: usize = 1 << 16;
/// Addresses that expire, and as many that arrive, each week.
const CHURN: usize = 2_048;
const READS_PER_WEEK: usize = 32;
/// A week whose replicas have not converged after this many rounds fails.
const ROUND_CAP: u64 = 16;
/// Study week of the initial corpus; the timed weeks follow it.
const FIRST_WEEK: u32 = 8;

/// Bytes the stores wrote under a data root, seen from file sizes week
/// to week: the growth of a file, all of a new one, and all of one that
/// shrank (a checkpoint truncates the epoch log, which then grows anew).
#[derive(Default)]
struct DiskWrites {
    sizes: HashMap<PathBuf, u64>,
    written: u64,
}

impl DiskWrites {
    fn scan(&mut self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                self.scan(&path);
                continue;
            }
            let size = e.metadata().map_or(0, |m| m.len());
            self.written += match self.sizes.insert(path, size) {
                Some(prev) if size >= prev => size - prev,
                _ => size,
            };
        }
    }
}

/// Every partition's entries and aliases, as `Cluster::publish` takes them.
type Inputs = Vec<(Vec<(u128, u32)>, Vec<AliasEntry>)>;

fn inputs(corpus: &Churn, partitions: u32) -> Inputs {
    (0..partitions)
        .map(|pid| (corpus.entries(pid), corpus.aliases(pid)))
        .collect()
}

/// Publishes `inputs` as week `week` of every partition and pumps until
/// converged. Returns the rounds it took (`None` past the cap).
fn publish_week(
    cluster: &mut Cluster,
    inputs: Inputs,
    week: u32,
    publish_ns: &mut u64,
    pump_ns: &mut u64,
    tracer: &mut Tracer,
    root: u64,
) -> (bool, Option<u64>) {
    let mut committed = true;
    for (pid, (entries, aliases)) in (0u32..).zip(inputs) {
        let t = Instant::now();
        let outcome = cluster.publish(pid, u64::from(week), entries, aliases);
        let end = Instant::now();
        *publish_ns += (end - t).as_nanos() as u64;
        tracer.span("cluster.publish", t, end, root, u64::from(week));
        committed &= matches!(outcome, PublishOutcome::Committed { .. });
    }
    let mut rounds = 0;
    while !cluster.is_converged() {
        if rounds == ROUND_CAP {
            return (committed, None);
        }
        let t = Instant::now();
        cluster.pump_round();
        let end = Instant::now();
        *pump_ns += (end - t).as_nanos() as u64;
        tracer.span("cluster.pump_round", t, end, root, u64::from(week));
        rounds += 1;
    }
    (committed, Some(rounds))
}

struct Setup {
    cluster: Cluster,
    corpus: Churn,
    root: PathBuf,
}

fn setup(
    args: &Args,
    corpus: &Churn,
    resolver: &SharedResolver,
    index: usize,
    rep: &mut Report,
) -> (Setup, f64) {
    let corpus = corpus.clone();
    let root = Path::new(OUT_DIR).join(format!(
        "cluster-{}-{}-{index}",
        std::process::id(),
        args.seed
    ));
    let mut cfg = ClusterConfig::new(NODES, REPLICATION, args.seed);
    cfg.data_root = root.clone();
    let week_inputs = inputs(&corpus, cfg.partitions);
    let t0 = Instant::now();
    let mut cluster = Cluster::new(cfg).expect("cluster data directories under perfbench/out");
    cluster.enable_streaming(resolver.clone());
    let mut off = Tracer::new(false, t0, 0);
    let (committed, rounds) = publish_week(
        &mut cluster,
        week_inputs,
        FIRST_WEEK - 1,
        &mut 0,
        &mut 0,
        &mut off,
        0,
    );
    let setup_s = t0.elapsed().as_secs_f64();
    rep.check(committed && rounds.is_some(), || {
        "initial corpus did not converge".into()
    });
    (
        Setup {
            cluster,
            corpus,
            root,
        },
        setup_s,
    )
}

#[derive(Default)]
struct Weeks {
    weeks: u64,
    changed: u64,
    rounds: u64,
    visible_ms: Vec<f64>,
    wall_s: Vec<f64>,
    reads: Hist,
    read_ns: u64,
    read_rounds: u64,
    publishes: u64,
    publish_ns: u64,
    pump_ns: u64,
    /// Whole week iterations, the benchmark's own work (churning the
    /// corpus, building the inputs, checking reads) included.
    iter_ns: u64,
    spans: Vec<Span>,
}

fn run_weeks(
    s: &mut Setup,
    week: &mut u32,
    seconds: f64,
    mut disk: Option<&mut DiskWrites>,
    rep: &mut Report,
) -> Weeks {
    let tracing = disk.is_some();
    let origin = Instant::now();
    let until = origin + Duration::from_secs_f64(seconds);
    let mut tracer = Tracer::new(tracing, origin, 1);
    let mut w = Weeks::default();
    while Instant::now() < until {
        tracer.alternate(w.weeks);
        let t_iter = Instant::now();
        let root = tracer.reserve();
        w.changed += s.corpus.advance(*week, CHURN) as u64;
        let probes = s.corpus.sample_live(READS_PER_WEEK);
        let week_inputs = inputs(&s.corpus, s.cluster.config().partitions);
        let t0 = Instant::now();
        let (committed, rounds) = publish_week(
            &mut s.cluster,
            week_inputs,
            *week,
            &mut w.publish_ns,
            &mut w.pump_ns,
            &mut tracer,
            root,
        );
        let visible = Instant::now();
        tracer.span_as(root, "bench.week", t_iter, visible, 0, u64::from(*week));
        rep.check(committed, || {
            format!("week {week}: a publish did not commit")
        });
        rep.check(rounds.is_some(), || {
            format!("week {week}: not converged after {ROUND_CAP} rounds")
        });
        w.rounds += rounds.unwrap_or(ROUND_CAP);
        w.publishes += u64::from(s.cluster.config().partitions);
        w.visible_ms.push((visible - t0).as_secs_f64() * 1e3);

        let reads_root = tracer.reserve();
        for &(bits, first_week) in &probes {
            let r0 = s.cluster.round();
            let t = Instant::now();
            let out = s.cluster.read(bits);
            let end = Instant::now();
            w.reads.record((end - t).as_nanos() as u64);
            w.read_ns += (end - t).as_nanos() as u64;
            w.read_rounds += s.cluster.round() - r0;
            tracer.span("cluster.read", t, end, reads_root, u64::from(*week));
            rep.check(
                out.status == ReadStatus::Fresh
                    && out.present
                    && out.first_week == Some(first_week),
                || format!("week {week}: read of a live address came back {out:?}"),
            );
        }
        tracer.span_as(
            reads_root,
            "bench.reads",
            visible,
            Instant::now(),
            0,
            u64::from(*week),
        );
        let t_done = Instant::now();
        w.wall_s.push((t_done - t0).as_secs_f64());
        w.iter_ns += (t_done - t_iter).as_nanos() as u64;
        if let Some(d) = disk.as_deref_mut() {
            d.scan(&s.root);
        }
        w.weeks += 1;
        *week += 1;
    }
    w.spans = tracer.spans;
    w
}

fn final_checks(s: &Setup, resolver: &SharedResolver, rep: &mut Report) {
    let stale = s.cluster.unlabeled_stale_reads();
    rep.check(stale == 0, || {
        format!("{stale} stale reads were labeled fresh")
    });
    for pid in 0..s.cluster.config().partitions {
        let want = Analytics::from_entries(resolver.clone(), &s.corpus.entries(pid)).checksums();
        let committed = s.cluster.committed(pid).map(|c| c.0);
        let rows = s.cluster.stream_checksums(pid);
        rep.check(rows.len() == REPLICATION, || {
            format!("p{pid}: {} streaming replicas", rows.len())
        });
        for (node, epoch, sums) in rows {
            rep.check(Some(epoch) == committed && sums == want, || {
                format!("p{pid}: {node}'s stream operators differ from a batch rebuild")
            });
        }
    }
}

pub fn publish_churn(args: &Args, rep: &mut Report) {
    let resolver = corpus::resolver();
    let partitions = ClusterConfig::new(NODES, REPLICATION, args.seed).partitions;
    let corpus = Churn::new(args.seed, CORPUS, partitions);
    rep.record("addresses", corpus.len());
    rep.record("churn_per_week", 2 * CHURN);
    rep.record("nodes", NODES);
    rep.record("replication", REPLICATION);
    rep.record("partitions", partitions);
    rep.record("reads_per_week", READS_PER_WEEK);
    rep.record("caller_threads", 1);
    rep.record(
        "fsync",
        "\"off: v6cluster node stores are built with StoreConfig::with_fsync(false)\"",
    );

    let mut setups = Vec::new();
    let mut current = None;
    for i in 0..if args.trace { 1 } else { 5 } {
        drop(current.take());
        let (s, secs) = setup(args, &corpus, &resolver, i, rep);
        setups.push(secs);
        current = Some(s);
    }
    let mut s = current.expect("at least one setup");
    rep.record("setups", setups.len());
    let mut week = FIRST_WEEK;
    let secs = args.seconds as f64;

    if !args.trace {
        let w = run_weeks(&mut s, &mut week, secs, None, rep);
        rep.set("setup_s", median(&setups));
        rep.visible(&w.visible_ms);
        rep.set(
            "reads_per_s",
            w.reads.count() as f64 / (w.read_ns as f64 / 1e9),
        );
        rep.read_percentiles(&w.reads);
        rep.set("wall_s", median(&w.wall_s));
        rep.record(
            "wall_s_unit_of_work",
            "\"one week: publish, converge, reads\"",
        );
        rep.record("weeks", w.weeks);
    } else {
        let mut disk = DiskWrites::default();
        disk.scan(&s.root);
        disk.written = 0;
        let cluster_before = s.cluster.metrics();
        let global_before = v6obs::global().snapshot();
        let w = run_weeks(&mut s, &mut week, secs, Some(&mut disk), rep);
        let cluster = Delta::between(&cluster_before, &s.cluster.metrics());
        let global = Delta::between(&global_before, &v6obs::global().snapshot());
        let weeks = w.weeks as f64;
        rep.set(
            "cluster.publish_ms",
            w.publish_ns as f64 / 1e6 / w.publishes as f64,
        );
        rep.set(
            "cluster.pump_round_ms",
            ratio(w.pump_ns as f64 / 1e6, w.rounds as f64),
        );
        rep.set("cluster.rounds_per_week", w.rounds as f64 / weeks);
        rep.set(
            "cluster.read_rounds",
            w.read_rounds as f64 / w.reads.count() as f64,
        );
        rep.set(
            "cluster.applied_per_pushed",
            ratio(
                cluster.counter_suffix(".cluster.repl.deltas_applied") as f64,
                cluster.counter_suffix(".cluster.repl.deltas_pushed") as f64,
            ),
        );
        rep.set(
            "cluster.catchups",
            cluster.counter_suffix(".cluster.repl.catchup_reqs") as f64,
        );
        rep.set(
            "cluster.chunks_per_week",
            cluster.counter("fabric.cluster.net.chunks") as f64 / weeks,
        );
        // The week's time is taken apart from the layer timestamps, so
        // the residual is the benchmark's own share of each week.
        let layers = (w.publish_ns + w.pump_ns + w.read_ns) as f64;
        let residual = (w.iter_ns as f64 - layers) / w.iter_ns as f64;
        rep.set("cluster.sum_residual_share", residual);
        rep.check(residual.abs() <= LAYER_SUM_TOLERANCE, || {
            format!("publish+pump_round+read miss the week's time by {residual:.4}")
        });
        rep.set(
            "store.log_bytes_per_delta_addr",
            disk.written as f64 / w.changed as f64,
        );
        rep.set(
            "stream.apply_ms_per_week",
            global.sum_ns("stream.op.apply_latency") as f64 / 1e6 / weeks,
        );
        rep.set(
            "stream.events_per_week",
            global.counter("stream.op.events") as f64 / weeks,
        );
        rep.set("stream.resyncs", global.counter("stream.op.resyncs") as f64);
        let rates: Vec<f64> = w.wall_s.iter().map(|s| 1.0 / s).collect();
        trace::finish(rep, args, &w.spans, trace::overhead(&rates));
    }
    final_checks(&s, &resolver, rep);
}
