//! In-memory span recording for the traced run.
//!
//! A span is `(name, start, end, parent, request)`: the benchmark opens one
//! around each call it makes into a layer's public function, nested under
//! the request (or replication) the call serves. Spans stay in memory
//! until the run ends and are then written out as JSON lines. A disabled
//! tracer never reads the clock, so the same replay code measures the
//! tracing overhead against itself.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request sequence number (or replication cell) the call served.
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// An open span, returned by [`Tracer::enter`] and consumed by
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        self.close(open, None);
    }

    /// Closes `open` under a name decided by the call's result (a cache
    /// probe is a hit or a miss only once it returns).
    pub fn exit_as(&mut self, open: Open, name: &'static str) {
        self.close(open, Some(name));
    }

    fn close(&mut self, open: Open, rename: Option<&'static str>) {
        let Some(index) = open.0 else { return };
        let end = self.now();
        let popped = self.open.pop();
        assert_eq!(popped, Some(index), "spans must close innermost first");
        let span = &mut self.spans[index];
        span.end = end;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Times `f` as one span with no children.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let result = f();
        self.exit(open);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// µs of each span covered by its direct children.
    fn covered(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.micros();
            }
        }
        covered
    }

    /// Self time in µs of every span called `name`: its duration minus the
    /// part of it its child spans cover.
    pub fn self_micros(&self, name: &str) -> Vec<f64> {
        let covered = self.covered();
        self.spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.micros() - c)
            .collect()
    }

    /// Total self time in µs of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.self_micros(name).iter().sum()
    }

    /// For every span called `name`: its request and the µs its child
    /// spans cover.
    pub fn children_of(&self, name: &str) -> Vec<(u64, f64)> {
        let covered = self.covered();
        self.spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.request, c))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                span.name, span.start, span.end, parent, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer", 7);
        let inner = tr.enter("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(inner);
        tr.exit(outer);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = tr.self_micros("outer")[0];
        assert!((own - (spans[0].micros() - spans[1].micros())).abs() < 1e-9);
        assert!(own < spans[1].micros());
        assert_eq!(tr.children_of("outer"), vec![(7, spans[1].micros())]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.time("x", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(tr.spans().is_empty());
    }
}
