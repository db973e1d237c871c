//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (name, start, end, parent, root), kept in memory and written out once
//! when the run ends. A disabled tracer reads no clock and records
//! nothing, so the same call sequence can run untraced to measure the
//! tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was built.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Index of the outermost enclosing span (itself for a root).
    pub root: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Entered(Option<u32>);

/// Span recorder (see the module docs).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStat {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Entered {
        if !self.on {
            return Entered(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let root = parent.map_or(id, |p| self.spans[p as usize].root);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root,
        });
        self.stack.push(id);
        Entered(Some(id))
    }

    /// Close a span opened by [`enter`](Self::enter).
    pub fn exit(&mut self, e: Entered) {
        if let Some(id) = e.0 {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let e = self.enter(name);
        let r = f();
        self.exit(e);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Calls, total and self time per span name over every span.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStat> {
        let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let st = out.entry(s.name).or_default();
            st.calls += 1;
            st.total_ns += s.dur_ns();
            st.self_ns += self_ns;
        }
        out
    }

    /// Seconds spent in spans named `name`, summed per root span (one
    /// value per root that contains at least one such span).
    pub fn per_root_secs(&self, name: &str) -> Vec<f64> {
        let mut per: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per.entry(s.root).or_insert(0) += s.dur_ns();
        }
        per.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    /// Write the spans (at most `max_spans`, in start order) followed by
    /// one per-name summary line, as JSON lines.
    pub fn write_jsonl(&self, path: &Path, max_spans: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate().take(max_spans) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"root\":{}}}",
                s.name, s.start_ns, s.end_ns, s.root
            )?;
        }
        for (name, st) in self.by_name() {
            writeln!(
                w,
                "{{\"summary\":\"{name}\",\"calls\":{},\"total_s\":{},\"self_s\":{}}}",
                st.calls,
                st.total_ns as f64 / 1e9,
                st.self_ns as f64 / 1e9
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_roots_and_self_time() {
        let mut t = Tracer::new(true);
        let a = t.enter("pass");
        t.span("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("leaf", || ());
        t.exit(a);
        let b = t.enter("pass");
        t.span("leaf", || ());
        t.exit(b);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[4].root, 3);
        let by = t.by_name();
        assert_eq!(by["leaf"].calls, 3);
        assert_eq!(by["leaf"].self_ns, by["leaf"].total_ns);
        assert!(by["pass"].self_ns < by["pass"].total_ns);
        assert_eq!(t.per_root_secs("leaf").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let e = t.enter("pass");
        assert_eq!(t.span("leaf", || 7), 7);
        t.exit(e);
        assert!(t.spans().is_empty());
    }
}
