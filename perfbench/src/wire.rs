//! The `read-wire` workload: the read-engine request stream encoded as
//! `v6wire` frames, one connection per client thread
//! (`WireClient` <-> `duplex()` <-> `ServerConn::pump`), each sending a
//! fixed pipelining window and waiting for all of it.
//!
//! The admission clock is the request schedule in simulated
//! microseconds (400 requests/s per client), never the wall clock, so
//! whether a frame is refused cannot depend on how fast the host is.

use std::sync::Arc;
use std::time::Instant;

use v6serve::{sample_present, GenRequest, LoadSpec, QueryEngine, RequestStream, Snapshot};
use v6wire::{
    duplex, serve_request, AdmissionConfig, PipeTransport, Request, Response, Transport,
    TransportError, WireClient, WireServer,
};

use crate::corpus::{self, Summary};
use crate::engine::{
    merge_slices, publish, read_metrics, wall_seed, Budget, Slice, WALL_REQUESTS, WALL_RUNS,
};
use crate::report::{median, Delta, Report};
use crate::trace::{self, Span, Tracer};
use crate::{Args, CLIENTS, LAYER_SUM_TOLERANCE};

/// Requests in flight per connection.
const WINDOW: u64 = 16;
/// 400 requests/s per client on the admission clock.
const INTERVAL_US: u64 = 2_500;
/// One request in this many is compared with `serve_request`.
const COMPARE_EVERY: u64 = 64;
/// One window in this many is kept in the trace.
const SAMPLE_EVERY: u64 = 16;
/// Seconds an untraced run repeats its setup for, half before the reads
/// and half after them, on both client threads. The host's speed drifts
/// over seconds and differs between its cores, so the publish-to-visible
/// samples span the run and both cores, and hundreds of them leave ten
/// beyond the p95.
const SETUP_SECONDS: f64 = 6.0;

/// Addresses in the read-wire snapshot.
const ADDRESSES: u64 = 1 << 16;

/// A transport that counts the bytes its client moves.
struct Counting {
    inner: PipeTransport,
    bytes: u64,
}

impl Transport for Counting {
    fn send(&mut self, bytes: &[u8], now_us: u64) -> Result<(), TransportError> {
        self.bytes += bytes.len() as u64;
        self.inner.send(bytes, now_us)
    }

    fn recv(&mut self, now_us: u64) -> Result<Vec<u8>, TransportError> {
        let got = self.inner.recv(now_us)?;
        self.bytes += got.len() as u64;
        Ok(got)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

fn to_wire(req: &GenRequest) -> Request {
    match req {
        GenRequest::Membership { addr, .. } => Request::Membership {
            addr: u128::from(*addr),
        },
        GenRequest::MembershipUnaliased { addr } => Request::MembershipUnaliased {
            addr: u128::from(*addr),
        },
        GenRequest::Lookup { addr, .. } => Request::Lookup {
            addr: u128::from(*addr),
        },
        GenRequest::Density { prefix, .. } => Request::Density { prefix: *prefix },
        GenRequest::NewSince { week } => Request::NewSince { week: *week },
        GenRequest::Batch { addrs, .. } => Request::Batch {
            addrs: addrs.iter().map(|&a| u128::from(a)).collect(),
        },
    }
}

/// Whether `resp` is a correct answer to `req`, as far as the generated
/// inputs know the truth.
fn answer_ok(req: &GenRequest, resp: &Response, new_since: &[u64]) -> bool {
    match (req, resp) {
        (GenRequest::Membership { from_present, .. }, Response::Bool { value }) => {
            *value || !from_present
        }
        (GenRequest::MembershipUnaliased { .. }, Response::Bool { .. }) => true,
        (GenRequest::Lookup { from_present, .. }, Response::Lookup { answer, .. }) => {
            answer.present || !from_present
        }
        (GenRequest::Density { from_present, .. }, Response::Count { value, .. }) => {
            *value > 0 || !from_present
        }
        (GenRequest::NewSince { week }, Response::Count { value, .. }) => {
            new_since.get(*week as usize).copied().unwrap_or(0) == *value
        }
        (
            GenRequest::Batch {
                addrs,
                expect_present,
            },
            Response::Batch {
                answers, present, ..
            },
        ) => answers.len() == addrs.len() && present >= expect_present,
        _ => false,
    }
}

#[derive(Default)]
struct WireOut {
    slices: Vec<Slice>,
    frames: u64,
    failed: u64,
    pumps: u64,
    bytes: u64,
    traced_frames: u64,
    send_ns: u64,
    pump_ns: u64,
    poll_ns: u64,
    /// Whole loop iterations of the traced windows, the benchmark's own
    /// work included: what send, pump and poll must add up to.
    loop_ns: u64,
    /// Frames sent by the client that sent most, for the admission clock.
    most_frames: u64,
    spans: Vec<Span>,
}

#[allow(clippy::too_many_arguments)]
fn client(
    server: &Arc<WireServer>,
    snap: &Snapshot,
    mut stream: RequestStream<'_>,
    new_since: &[u64],
    client_id: u64,
    budget: &Budget,
    first_frame: u64,
    mut tracer: Tracer,
) -> WireOut {
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(
        Counting {
            inner: client_end,
            bytes: 0,
        },
        first_frame * INTERVAL_US,
    )
    .expect("a fresh pipe accepts the preamble");
    let mut conn = server.open_connection(client_id);
    let mut out = WireOut::default();
    let mut sent_at = [Instant::now(); WINDOW as usize];
    let mut window = 0u64;
    let origin = Instant::now();
    loop {
        let t_loop = Instant::now();
        match *budget {
            Budget::Seconds(secs) => {
                let at = (t_loop - origin).as_secs();
                if at >= secs {
                    break;
                }
                while out.slices.len() as u64 <= at {
                    tracer.alternate(out.slices.len() as u64);
                    out.slices.push(Slice::new(1.0));
                }
            }
            Budget::Requests(k) => {
                if out.frames >= k {
                    break;
                }
                if out.slices.is_empty() {
                    out.slices.push(Slice::new(0.0));
                }
            }
        }
        let slice = out.slices.last_mut().expect("pushed above");
        let gen: Vec<GenRequest> = (0..WINDOW).map(|_| stream.next_request()).collect();
        let reqs: Vec<Request> = gen.iter().map(to_wire).collect();
        let sent = out.frames;
        let first = first_frame + sent;
        let last_us = (first + WINDOW - 1) * INTERVAL_US;

        let t_send = Instant::now();
        let mut ids = Vec::with_capacity(WINDOW as usize);
        for (i, req) in reqs.iter().enumerate() {
            sent_at[i] = Instant::now();
            match client.send(req, (first + i as u64) * INTERVAL_US) {
                Ok(id) => ids.push(id),
                Err(_) => out.failed += 1,
            }
        }
        let t_sent = Instant::now();
        let t_pump = Instant::now();
        let pumped = conn.pump(&mut server_end, last_us);
        let t_pumped = Instant::now();
        let t_poll = Instant::now();
        let polled = client.poll(last_us);
        let t_end = Instant::now();

        out.frames += WINDOW;
        out.pumps += 1;
        for at in &sent_at {
            slice.record((t_end - *at).as_nanos() as u64);
        }
        let resps = match (pumped, polled) {
            (Ok(_), Ok(r)) => r,
            _ => {
                out.failed += WINDOW;
                break;
            }
        };
        for (i, (g, req)) in gen.iter().zip(&reqs).enumerate() {
            let ok = match resps.get(i) {
                Some((id, resp)) => {
                    Some(id) == ids.get(i)
                        && answer_ok(g, resp, new_since)
                        && (!(sent + i as u64).is_multiple_of(COMPARE_EVERY)
                            || *resp == serve_request(snap, req.clone()))
                }
                None => false,
            };
            out.failed += u64::from(!ok);
        }
        out.failed += resps.len().saturating_sub(WINDOW as usize) as u64;
        let t_done = Instant::now();

        if tracer.on() {
            out.traced_frames += WINDOW;
            out.send_ns += (t_sent - t_send).as_nanos() as u64;
            out.pump_ns += (t_pumped - t_pump).as_nanos() as u64;
            out.poll_ns += (t_end - t_poll).as_nanos() as u64;
            out.loop_ns += (t_done - t_loop).as_nanos() as u64;
            if window.is_multiple_of(SAMPLE_EVERY) {
                let root = tracer.span("bench.window", t_loop, t_done, 0, window);
                tracer.span("wire.send", t_send, t_sent, root, window);
                tracer.span("wire.pump", t_pump, t_pumped, root, window);
                tracer.span("wire.poll", t_poll, t_end, root, window);
            }
        }
        window += 1;
    }
    out.bytes = client.transport_mut().bytes;
    out.spans = std::mem::take(&mut tracer.spans);
    out
}

/// Runs one connection per client thread until the budget is spent.
/// The admission clock of every connection starts at `first_frame`
/// requests into the schedule, so it never runs back across runs.
fn run(
    server: &Arc<WireServer>,
    present: &[u128],
    new_since: &[u64],
    seed: u64,
    budget: &Budget,
    first_frame: u64,
    tracing: bool,
) -> WireOut {
    let snap = server.engine().store().snapshot();
    let spec = LoadSpec {
        seed,
        ..Default::default()
    };
    let origin = Instant::now();
    let outs: Vec<WireOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let stream = RequestStream::new(&spec, present, snap.week(), t);
                let tracer = Tracer::new(tracing, origin, t as u64 + 1);
                let snap = &snap;
                s.spawn(move || {
                    client(
                        server,
                        snap,
                        stream,
                        new_since,
                        t as u64 + 1,
                        budget,
                        first_frame,
                        tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wire client thread panicked"))
            .collect()
    });
    let elapsed_s = origin.elapsed().as_secs_f64();
    let mut all = WireOut::default();
    for o in outs {
        merge_slices(&mut all.slices, o.slices);
        all.most_frames = all.most_frames.max(o.frames);
        all.frames += o.frames;
        all.failed += o.failed;
        all.pumps += o.pumps;
        all.bytes += o.bytes;
        all.traced_frames += o.traced_frames;
        all.send_ns += o.send_ns;
        all.pump_ns += o.pump_ns;
        all.poll_ns += o.poll_ns;
        all.loop_ns += o.loop_ns;
        all.spans.extend(o.spans);
    }
    if let Budget::Requests(_) = budget {
        all.slices[0].secs = elapsed_s;
    }
    all
}

/// One setup thread's setup and visible times, and the server it kept.
type SetupThread = (Vec<f64>, Vec<f64>, (Arc<WireServer>, Summary));

pub fn read_wire(args: &Args, rep: &mut Report) {
    rep.record("connections", CLIENTS);
    rep.record("window", WINDOW);
    rep.record("fsync", "\"none: in-memory store\"");
    rep.record("admission_rate_per_client", 1_000_000 / INTERVAL_US);
    let (mut setups, mut visible) = (Vec::new(), Vec::new());
    // Repeats the setup for `secs` (at least once) on every client
    // thread at once, as the reads run, and keeps one server.
    let mut set_up = |secs: f64| {
        let runs: Vec<SetupThread> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    sc.spawn(|| {
                        let started = Instant::now();
                        let (mut st, mut vis, mut server) = (Vec::new(), Vec::new(), None);
                        while server.is_none() || started.elapsed().as_secs_f64() < secs {
                            drop(server.take());
                            let t0 = Instant::now();
                            let (served, summary) =
                                publish("read-wire", |b| corpus::served(args.seed, ADDRESSES, b));
                            let s = WireServer::new(
                                QueryEngine::new(served.store),
                                AdmissionConfig::default(),
                                0,
                            );
                            st.push(t0.elapsed().as_secs_f64());
                            vis.push(served.visible_s * 1e3);
                            server = Some((s, summary));
                        }
                        (st, vis, server.expect("set up at least once"))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("setup thread panicked"))
                .collect()
        });
        let mut kept = None;
        for (st, vis, server) in runs {
            setups.extend(st);
            visible.extend(vis);
            kept = Some(server);
        }
        kept.expect("one server per client thread")
    };
    let (server, summary) = set_up(if args.trace { 0.0 } else { SETUP_SECONDS / 2.0 });
    rep.record("addresses", summary.addresses);
    rep.record("alias_prefixes", summary.aliases);
    let snap = server.engine().store().snapshot();
    let present = sample_present(&snap, 65_536);
    let table = corpus::new_since_table(&summary.per_week);
    let seconds = Budget::Seconds(args.seconds);

    if !args.trace {
        let out = run(&server, &present, &table, args.seed, &seconds, 0, false);
        rep.ops(out.frames, out.failed);
        read_metrics(rep, &out.slices);
        let mut clock = out.most_frames;
        let walls: Vec<f64> = (0..WALL_RUNS)
            .map(|r| {
                let budget = Budget::Requests(WALL_REQUESTS / CLIENTS as u64);
                let seed = wall_seed(args.seed, r);
                let out = run(&server, &present, &table, seed, &budget, clock, false);
                rep.ops(out.frames, out.failed);
                clock += out.most_frames;
                out.slices[0].secs
            })
            .collect();
        rep.set("wall_s", median(&walls));
        rep.record(
            "wall_s_unit_of_work",
            format!("\"{WALL_REQUESTS} requests, median of {WALL_RUNS} runs\""),
        );
        // The other half of the setups after the reads, so the samples
        // span the whole run.
        set_up(SETUP_SECONDS / 2.0);
        rep.record("setups", setups.len());
        rep.set("setup_s", median(&setups));
        rep.visible(&visible);
    } else {
        let registry = server.metrics().registry();
        let before = registry.snapshot();
        let out = run(&server, &present, &table, args.seed, &seconds, 0, true);
        let delta = Delta::between(&before, &registry.snapshot());
        rep.ops(out.frames, out.failed);
        let frames = out.traced_frames as f64;
        rep.set("wire.send_ns_per_frame", out.send_ns as f64 / frames);
        rep.set("wire.pump_ns_per_frame", out.pump_ns as f64 / frames);
        rep.set("wire.poll_ns_per_frame", out.poll_ns as f64 / frames);
        rep.set(
            "wire.frames_per_pump",
            delta.counter("wire.conn.frames_in") as f64 / out.pumps as f64,
        );
        rep.set("wire.bytes_per_read", out.bytes as f64 / out.frames as f64);
        rep.set("wire.admitted", delta.counter("wire.admit.admitted") as f64);
        let refused = delta.counter("wire.admit.throttled") + delta.counter("wire.admit.shed");
        rep.set("wire.refused", refused as f64);
        rep.check(refused == 0, || format!("{refused} frames refused"));
        // The loop time is taken apart from the layer timestamps, so
        // the residual is the benchmark's own share of each window.
        let layers = (out.send_ns + out.pump_ns + out.poll_ns) as f64;
        let residual = (out.loop_ns as f64 - layers) / out.loop_ns as f64;
        rep.set("wire.sum_residual_share", residual);
        rep.check(residual.abs() <= LAYER_SUM_TOLERANCE, || {
            format!("send+pump+poll miss the window loop time by {residual:.4}")
        });
        let rates: Vec<f64> = out.slices.iter().map(|s| s.reads as f64 / s.secs).collect();
        trace::finish(rep, args, &out.spans, trace::overhead(&rates));
    }
    rep.check(snap.verify_integrity(), || {
        "snapshot integrity failed".into()
    });
}
