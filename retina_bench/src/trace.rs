//! Spans recorded around every call the benchmark makes into the
//! system, kept in memory and written out when the run ends.
//!
//! Every call goes through [`Tracer::open`]/[`Tracer::close`] (or
//! [`Tracer::time`]) whether or not tracing is on: the returned duration
//! feeds the end-to-end metrics in both modes, and only a traced run
//! keeps the span itself.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span name: a layer call such as `trainer.retina_s_fit`.
pub type Name = Cow<'static, str>;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request (or item) the span served, when there is one.
    pub req: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span that has started and not yet closed.
pub struct Open {
    pub id: u64,
    parent: u64,
    name: Name,
    req: Option<u64>,
    start: Instant,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn open(&self, name: impl Into<Name>, parent: u64, req: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            req,
            start: Instant::now(),
        }
    }

    /// Close `open`, keep the span when tracing, and return its length
    /// in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if self.on {
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: self.ns(open.start),
                end_ns: self.ns(end),
                req: open.req,
            };
            self.spans
                .lock()
                .expect("span log poisoned by a panicking thread")
                .push(span);
        }
        secs
    }

    /// Run `f` inside a span; returns its result and its length in seconds.
    pub fn time<R>(&self, name: impl Into<Name>, parent: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name, parent, None);
        let out = f();
        (out, self.close(open))
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
            .clone()
    }

    /// Write the spans as a JSON array, one span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"req\": {}}}{comma}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, req
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// For each parent span, the summed duration of its children that
/// `pick` selects (one value per parent that has any).
pub fn sums_by_parent(spans: &[Span], pick: impl Fn(&str) -> bool) -> Vec<f64> {
    let mut sums: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| pick(&s.name)) {
        *sums.entry(s.parent).or_default() += s.secs();
    }
    sums.into_values().collect()
}
