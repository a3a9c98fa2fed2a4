//! In-memory span recording around the calls the benchmark makes into
//! each layer. Spans carry a name, start, end, parent and request id;
//! they stay in memory during the run and are written out as JSON lines
//! when it ends. A disabled tracer records nothing, so the same request
//! code runs traced and untraced and the difference is the overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `solver.canonicalize`.
    pub name: &'static str,
    /// Whether the request was a contraction network.
    pub network: bool,
    /// Request the span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (a no-op handle when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer; `enabled: false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, network: bool, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            network,
            request,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span (spans close innermost first).
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        network: bool,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, network, request);
        let out = f();
        self.close(open);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name` in the given
    /// request class.
    pub fn durations(&self, name: &str, network: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.network == network)
            .map(Span::secs)
            .collect()
    }

    /// Total self time per span name, seconds: each span's duration
    /// minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"class\": \"{}\", \"parent\": {parent}, \
                 \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                if s.network { "network" } else { "dense" },
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.open("request", false, 1);
        t.span("child", false, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let selfs = t.self_times();
        assert!(selfs["child"] >= 0.002);
        assert!(selfs["request"] < selfs["child"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("child", false, 1, || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }
}
