//! Seeded benchmark of the hitlist system: four workloads driven through
//! the crates' public APIs, one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read-engine|read-wire|publish-churn|pipeline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run records spans around every layer call, writes them under
//! `perfbench/out/`, and reports the per-layer metrics instead. See
//! `perfbench/README.md` for what each metric means on each workload.

mod churn;
mod corpus;
mod engine;
mod hist;
mod pipeline;
mod report;
mod trace;
mod wire;

use report::Report;

/// Closed-loop clients (or worker threads) per workload: the core count
/// of the host the benchmark was sized on.
pub const CLIENTS: usize = 2;

/// Where traces and the cluster's logs go, inside the checkout.
pub const OUT_DIR: &str = "perfbench/out";

const WORKLOADS: [&str; 4] = ["read-engine", "read-wire", "publish-churn", "pipeline"];

const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("reads_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("visible_p50_ms", "ms"),
    ("visible_p95_ms", "ms"),
    ("wall_s", "s"),
];

const PER_LAYER: [(&str, &str); 51] = [
    ("serve.membership_ns", "ns"),
    ("serve.unaliased_ns", "ns"),
    ("serve.lookup_ns", "ns"),
    ("serve.density_ns", "ns"),
    ("serve.new_since_ns", "ns"),
    ("serve.batch_ns", "ns"),
    ("serve.bloom_reject_share", "ratio"),
    ("serve.bytes_per_addr", "B"),
    ("serve.build_s", "s"),
    ("wire.send_ns_per_frame", "ns"),
    ("wire.pump_ns_per_frame", "ns"),
    ("wire.poll_ns_per_frame", "ns"),
    ("wire.frames_per_pump", "count"),
    ("wire.bytes_per_read", "B"),
    ("wire.admitted", "count"),
    ("wire.refused", "count"),
    ("wire.sum_residual_share", "ratio"),
    ("cluster.publish_ms", "ms"),
    ("cluster.pump_round_ms", "ms"),
    ("cluster.rounds_per_week", "count"),
    ("cluster.read_rounds", "count"),
    ("cluster.applied_per_pushed", "ratio"),
    ("cluster.catchups", "count"),
    ("cluster.chunks_per_week", "count"),
    ("cluster.sum_residual_share", "ratio"),
    ("store.log_bytes_per_delta_addr", "B"),
    ("stream.apply_ms_per_week", "ms"),
    ("stream.events_per_week", "count"),
    ("stream.resyncs", "count"),
    ("pipeline.world_ms", "ms"),
    ("pipeline.corpus_ms", "ms"),
    ("pipeline.ntp_ms", "ms"),
    ("pipeline.hitlist_ms", "ms"),
    ("pipeline.caida_ms", "ms"),
    ("pipeline.backscan_ms", "ms"),
    ("pipeline.alias_findings_ms", "ms"),
    ("pipeline.tracking_ms", "ms"),
    ("pipeline.critical_path_residual_share", "ratio"),
    ("par.busy_share", "ratio"),
    ("par.steals", "count"),
    ("ntp.observations", "count"),
    ("scan.zmap6.probes", "count"),
    ("scan.zmap6.hit_share", "ratio"),
    ("scan.yarrp.probes", "count"),
    ("scan.alias.detected_share", "ratio"),
    ("obs.trace_overhead_share", "ratio"),
    ("self.bench_share", "ratio"),
    ("self.serve_share", "ratio"),
    ("self.wire_share", "ratio"),
    ("self.cluster_share", "ratio"),
    ("self.hitlist_share", "ratio"),
];

/// Layer times must add up to the end-to-end time they split within
/// this share of it (stated in `BENCHMARK.json` too).
pub const LAYER_SUM_TOLERANCE: f64 = 0.10;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(2022),
        seconds: seconds.unwrap_or(10).max(1),
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rep = Report::default();
    match args.workload.as_str() {
        "read-engine" => engine::read_engine(&args, &mut rep),
        "read-wire" => wire::read_wire(&args, &mut rep),
        "publish-churn" => churn::publish_churn(&args, &mut rep),
        _ => pipeline::pipeline(&args, &mut rep),
    }

    let expected: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        rep.set("peak_rss_mb", report::peak_rss_mb());
        let ok = (rep.attempted - rep.failed) as f64 / rep.attempted.max(1) as f64;
        rep.set("ok_share", ok);
        &END_TO_END
    };
    let mut not_exercised = Vec::new();
    let mut metrics = Vec::new();
    for &(name, unit) in expected {
        let value = match rep.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload never calls: nothing was measured.
            None if args.trace => {
                not_exercised.push(format!("\"{name}\""));
                0.0
            }
            None => panic!("{} did not measure {name}", args.workload),
        };
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }

    let mut record = vec![
        format!("\"workload\":\"{}\"", args.workload),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", args.seconds),
        format!("\"trace\":{}", args.trace),
        format!("\"nproc\":{nproc}"),
        format!("\"clients\":{CLIENTS}"),
        "\"loop\":\"closed\"".to_string(),
        format!("\"layer_sum_tolerance\":{LAYER_SUM_TOLERANCE}"),
    ];
    record.extend(rep.record.iter().map(|(k, v)| format!("\"{k}\":{v}")));
    if args.trace {
        record.push(format!("\"not_exercised\":[{}]", not_exercised.join(",")));
    }
    let failures: Vec<String> = rep.failures.iter().map(|f| format!("{f:?}")).collect();
    record.push(format!("\"failures\":[{}]", failures.join(",")));
    println!("{{\"run_record\":{{{}}}}}", record.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.failed == 0 && rep.attempted > 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(",")
    );
}
