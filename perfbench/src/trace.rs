//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer (name, start, end, parent span, request id), kept in memory and
//! written out once when the run ends. A layer's self time is its spans'
//! duration minus the part of each interval covered by child spans.

use crate::util::{json_num, json_str};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans beyond this many are counted but not kept, bounding trace memory.
const MAX_KEPT_SPANS: usize = 200_000;

struct Span {
    id: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<u64>,
    request: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

/// Per-name totals derived from the kept spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record a finished interval (nothing when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                name,
                start,
                end,
                parent,
                request,
            });
        }
    }

    /// Run `f` inside a span; `f` receives the span id so its own calls can
    /// record children. Returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> (T, f64) {
        let id = if self.enabled {
            Some(self.next_id.fetch_add(1, Ordering::Relaxed))
        } else {
            None
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            self.push(Span {
                id,
                name,
                start,
                end,
                parent,
                request,
            });
        }
        (out, (end - start).as_secs_f64())
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer lock");
        if spans.len() < MAX_KEPT_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in spans.iter() {
            let total = (s.end - s.start).as_secs_f64();
            let covered = children
                .get(&s.id)
                .map(|c| covered_secs(c, s.start, s.end))
                .unwrap_or(0.0);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += total;
            e.self_s += total - covered;
        }
        out
    }

    /// Write every kept span plus the per-name self times and `summary` (a
    /// JSON object body) to `path`.
    pub fn write(&self, path: &std::path::Path, summary: &str) -> std::io::Result<()> {
        use std::io::Write;
        let times = self.layer_times();
        let spans = self.spans.lock().expect("span buffer lock");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"summary\": {{{summary}}},")?;
        writeln!(w, "\"self_time\": {{")?;
        let n = times.len();
        for (i, (name, t)) in times.iter().enumerate() {
            let sep = if i + 1 < n { "," } else { "" };
            writeln!(
                w,
                "  {}: {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}{sep}",
                json_str(name),
                t.count,
                json_num(t.total_s),
                json_num(t.self_s)
            )?;
        }
        writeln!(w, "}},")?;
        writeln!(
            w,
            "\"spans_dropped\": {},",
            self.dropped.load(Ordering::Relaxed)
        )?;
        writeln!(w, "\"spans\": [")?;
        let us = |t: Instant| (t - self.origin).as_nanos() as f64 / 1e3;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"name\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {}, \"request\": {}}}{sep}",
                s.id,
                json_str(s.name),
                us(s.start),
                us(s.end),
                opt(s.parent),
                opt(s.request)
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Seconds of `[start, end]` covered by the union of `intervals`.
fn covered_secs(intervals: &[(Instant, Instant)], start: Instant, end: Instant) -> f64 {
    let mut iv: Vec<(Instant, Instant)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort();
    let mut covered = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += (ce - cs).as_secs_f64();
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += (ce - cs).as_secs_f64();
    }
    covered
}
