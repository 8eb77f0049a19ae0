//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around each public call the benchmark makes; nothing
//! inside the program is instrumented. A span's self time is its duration
//! minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"qasm"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; `u64::MAX` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in a flat vector; the innermost open span is the parent of
/// the next one entered.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            base: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Starts a new request: subsequent spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump: one header line, then one line per span.
    pub fn to_tsv(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::from("request\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{own}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals of one traced run.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of root spans (whole requests), in nanoseconds.
    pub request_ns: u64,
}

/// Sums self time by span name and request time over root spans.
pub fn layer_totals(spans: &[Span]) -> LayerTotals {
    let mut totals = LayerTotals::default();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *totals.self_ns.entry(s.name).or_default() += own;
        if s.parent.is_none() {
            totals.request_ns += s.duration_ns();
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0, 100, None),
            span("qasm", 10, 30, Some(0)),
            span("mapping", 40, 70, Some(0)),
            span("inner", 45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 30, 20, 30 - 5, 5]);
        let totals = layer_totals(&spans);
        assert_eq!(totals.request_ns, 100);
        assert_eq!(totals.self_ns["mapping"], 25);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Children cover [10, 60) and [90, 100) of the parent.
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_nests_spans_and_tags_requests() {
        let mut rec = Recorder::new();
        rec.next_request();
        let root = rec.enter("request");
        let parsed = rec.span("qasm", || std::hint::black_box(41) + 1);
        rec.exit(root);
        assert_eq!(parsed, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 1 && s.end_ns >= s.start_ns));
        let own = self_times(spans);
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(rec.to_tsv().lines().count(), 3);
    }
}
