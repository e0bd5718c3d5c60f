//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, a parent and a group id (the job,
//! wave or plan cell it belongs to). Spans are kept in memory and written
//! out once when the run ends. A span's self time is its duration minus
//! the time its child spans cover; children never overlap because the
//! benchmark is single-threaded, so that is the sum of their durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
pub struct Span {
    /// Layer-call name, e.g. `simnet.engine`.
    pub name: &'static str,
    /// Group id shared by the spans of one job, wave or plan cell.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// Time covered by direct children, ns.
    pub child: u64,
}

/// Per-name totals over a run's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// The recorder (see module docs).
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("runs last under 584 years")
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str, group: u64) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start,
            end: 0,
            child: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and
    /// returns its duration in ns.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = end;
        let dur = end - span.start;
        if let Some(p) = span.parent {
            self.spans[p].child += dur;
        }
        dur
    }

    /// Runs `f` inside a span and returns its result and duration in ns.
    pub fn time<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.enter(name, group);
        let r = f();
        (r, self.exit(id))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every closed span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Per-name totals, sorted by name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - s.child;
        }
        out
    }

    /// The spans as JSON: a name table and one
    /// `[name, group, parent, start_ns, end_ns]` row per span
    /// (`parent` is -1 for a root span).
    pub fn to_json(&self, header: &str) -> String {
        let names: Vec<&'static str> = self.totals().keys().copied().collect();
        let mut out = format!("{{{header},\"names\":[");
        for (i, n) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{n}\"");
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let name = names
                .binary_search(&s.name)
                .expect("every name is in the table");
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}[{name},{},{parent},{},{}]",
                s.group, s.start, s.end
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let outer = r.enter("outer", 1);
        let (_, inner) = r.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = r.exit(outer);
        let t = r.totals();
        assert_eq!(t["outer"].self_ns, total - inner);
        assert_eq!(t["inner"].self_ns, inner);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r
            .to_json("\"x\":1")
            .starts_with("{\"x\":1,\"names\":[\"inner\",\"outer\"]"));
    }
}
