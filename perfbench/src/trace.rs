//! Spans recorded in memory by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span's layer is its name up to the first dot (`serve.lookup` is in
//! `serve`). Spans of one request share its request id; a span's parent
//! is the span that caused it (0 for a root).

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::report::Report;
use crate::Args;

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 5] = ["bench", "serve", "wire", "cluster", "hitlist"];

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
}

/// One thread's span buffer; a tracer that is off records nothing.
pub struct Tracer {
    enabled: bool,
    on: bool,
    origin: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled: on,
            on,
            origin,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Traced stretches alternate with untraced ones, so the two are
    /// compared under the same conditions: of the stretches numbered
    /// 0, 1, 2, ... the odd ones are traced.
    pub fn alternate(&mut self, stretch: u64) {
        self.on = self.enabled && stretch % 2 == 1;
    }

    /// An id for a span that ends later, so its children can name it
    /// as their parent first (0 when off).
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Records a finished span and returns its id (0 when off). `req`
    /// numbers requests within this thread.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        let id = self.reserve();
        self.span_as(id, name, start, end, parent, req);
        id
    }

    /// Records a finished span under an id from [`Tracer::reserve`].
    pub fn span_as(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            id,
            parent,
            req: (self.thread << 40) | req,
        });
    }
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Each layer's share of the root spans' time that its spans spent
/// outside their children (self time).
pub fn self_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut root_ns = 0u64;
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        if s.parent == 0 {
            root_ns += dur;
        }
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *self_ns.entry(layer(s.name)).or_default() += own;
    }
    LAYERS
        .iter()
        .map(|&l| {
            let own = self_ns.get(l).copied().unwrap_or(0);
            (l, own as f64 / root_ns.max(1) as f64)
        })
        .collect()
}

/// Tracing overhead from alternating stretches: traced ÷ untraced cost
/// per unit − 1, where `rates[i]` is stretch `i`'s units per second.
pub fn overhead(rates: &[f64]) -> f64 {
    let pick = |parity| -> Vec<f64> {
        rates
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &r)| r)
            .collect()
    };
    crate::report::median(&pick(0)) / crate::report::median(&pick(1)) - 1.0
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req
        )?;
    }
    out.flush()
}

/// Sets the trace-derived metrics shared by every workload and writes
/// the spans out.
pub fn finish(rep: &mut Report, args: &Args, spans: &[Span], overhead: f64) {
    for (layer, share) in self_shares(spans) {
        rep.set(format!("self.{layer}_share"), share);
    }
    rep.set("obs.trace_overhead_share", overhead);
    let path =
        Path::new(crate::OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match write_jsonl(&path, spans) {
        Ok(()) => rep.record("trace_file", format!("\"{}\"", path.display())),
        Err(e) => rep.check(false, || format!("writing {}: {e}", path.display())),
    }
    rep.record("trace_spans", spans.len());
}
