//! In-memory spans around the benchmark's calls into each layer.
//!
//! Each thread records into its own [`Recorder`] (no shared state on
//! the hot path) and hands its spans to the [`Tracer`] when it ends.
//! Spans of one request share a request id; a span's parent is the
//! span that caused it. With tracing off a recorder keeps nothing and
//! each call costs one branch. A recorder keeps at most
//! [`SPANS_PER_THREAD`] spans; past that it still reads the clock (so
//! the tracing cost stays the same) but drops the span and counts it.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans one thread keeps; bounds memory and the span file.
pub const SPANS_PER_THREAD: usize = 10_000;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The causing span's id, or 0 for a root.
    pub parent: u64,
    /// Shared by every span of one request; 0 when not part of one.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The run-wide span store.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_thread: Mutex<u64>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_thread: Mutex::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// A recorder for one thread. Ids it hands out are unique run-wide.
    pub fn recorder(&self) -> Recorder<'_> {
        self.recorder_traced(self.on)
    }

    /// A recorder that records only if `traced` and the tracer is on:
    /// lets a traced run time one phase both with and without spans.
    pub fn recorder_traced(&self, traced: bool) -> Recorder<'_> {
        let mut next = self.next_thread.lock().expect("tracer lock poisoned");
        let thread = *next;
        *next += 1;
        Recorder {
            tracer: self,
            on: self.on && traced,
            prefix: thread << 40,
            seq: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Spans timed but not kept (past [`SPANS_PER_THREAD`]).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every span recorded so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = self.spans.lock().expect("tracer lock poisoned").clone();
        all.sort_by_key(|s| s.start_ns);
        all
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let all = self.spans.lock().expect("tracer lock poisoned");
        all.iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total self time (ns) of spans named `name`: each span's
    /// duration minus the part its children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let all = self.spans.lock().expect("tracer lock poisoned");
        let mut child_ns: std::collections::HashMap<u64, u64> = Default::default();
        for s in all.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        all.iter()
            .filter(|s| s.name == name)
            .map(|s| {
                s.dur_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            })
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A per-thread span buffer; flushes into its tracer on drop.
pub struct Recorder<'a> {
    tracer: &'a Tracer,
    on: bool,
    prefix: u64,
    seq: u64,
    spans: Vec<Span>,
    dropped: u64,
}

/// An open span: pass it back to [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open {
    index: usize,
    id: u64,
}

impl Open {
    /// The span id, for use as a child's parent (0 with tracing off).
    pub fn id(self) -> u64 {
        self.id
    }
}

impl Recorder<'_> {
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh request id (0 with tracing off).
    pub fn request_id(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.seq += 1;
        self.prefix | self.seq
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        if !self.on {
            return Open { index: 0, id: 0 };
        }
        let start_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
        if self.spans.len() >= SPANS_PER_THREAD {
            self.dropped += 1;
            return Open {
                index: usize::MAX,
                id: 0,
            };
        }
        self.seq += 1;
        let id = self.prefix | self.seq;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open {
            index: self.spans.len() - 1,
            id,
        }
    }

    pub fn end(&mut self, open: Open) {
        if self.on {
            let end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
            if let Some(span) = self.spans.get_mut(open.index) {
                span.end_ns = end_ns;
            }
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent, 0);
        let out = f();
        self.end(open);
        out
    }
}

impl Recorder<'_> {
    /// Hands the spans recorded so far to the tracer.
    pub fn flush(&mut self) {
        self.tracer
            .dropped
            .fetch_add(std::mem::take(&mut self.dropped), Ordering::Relaxed);
        if !self.spans.is_empty() {
            if let Ok(mut all) = self.tracer.spans.lock() {
                all.append(&mut self.spans);
            }
        }
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        {
            let mut r = t.recorder();
            let req = r.request_id();
            let root = r.begin("root", 0, req);
            let child = r.begin("child", root.id(), req);
            std::thread::sleep(std::time::Duration::from_millis(2));
            r.end(child);
            r.end(root);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request == spans[0].request));
        let root = t.durations("root")[0];
        let child = t.durations("child")[0];
        assert_eq!(t.self_ns("root"), root - child);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        {
            let mut r = t.recorder();
            let o = r.begin("x", 0, 0);
            r.end(o);
        }
        assert!(t.spans().is_empty());
    }
}
