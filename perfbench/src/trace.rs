//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end, parent span and request id. Spans are
//! kept in memory and written out once, when the run ends. A layer's self
//! time is its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// A span recorder. A disabled recorder runs the timed closures and keeps
/// nothing, which is how the tracing overhead is measured.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (wire requests, whose start is
    /// the scheduled send time and whose end is the reply's arrival).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            req,
        });
    }

    /// Self time of every span, in ns, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(c) as f64);
        }
        out
    }

    /// Total self time of the spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let parent = t.begin("outer", None, 7);
        t.time("inner", parent, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(parent);
        let st = t.self_times();
        let inner = st["inner"][0];
        let outer = st["outer"][0];
        assert!(inner >= 20e6, "{inner}");
        assert!(outer < inner, "outer self {outer} should exclude the child");
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", None, 0, || 5), 5);
        assert!(t.self_times().is_empty());
    }
}
