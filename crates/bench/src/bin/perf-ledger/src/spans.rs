//! In-memory spans on the host clock, recorded by the ledger around its
//! calls into each layer and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list; spans of
/// one replayed job share `job`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one origin instant. The span opened last and not
/// yet closed is the parent of the next one.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from here on belong to a new job; returns its id.
    pub fn next_job(&mut self) -> u32 {
        self.job += 1;
        self.job
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name);
        let r = f();
        (r, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&i) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Sum of self time per span name over the spans of `job`.
pub fn self_time_by_name(spans: &[Span], job: u32) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.job == job {
            *out.entry(s.name).or_insert(0) += own;
        }
    }
    out
}

/// The spans as one JSON document (names are identifiers chosen in this
/// crate, so they need no escaping).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"clock\": \"host wall\", \"unit\": \"ns\", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"job\": {}}}",
            s.name, s.start_ns, s.end_ns, s.job
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span(0, 100, None),    // root: children cover 10..40 and 50..70
            span(10, 30, Some(0)), // overlaps the next child on 20..30
            span(20, 40, Some(0)), // grandchild covers 25..35
            span(50, 70, Some(0)), // leaf
            span(25, 35, Some(2)), // leaf
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 10]);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![span(10, 20, None), span(15, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_by_open_order_and_tags_jobs() {
        let mut rec = Recorder::new();
        let job = rec.next_job();
        let outer = rec.open("job");
        let ((), inner_ns) = rec.time("call", || std::hint::black_box(()));
        let outer_ns = rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.job == job));
        assert!(inner_ns <= outer_ns);
        let by_name = self_time_by_name(spans, job);
        assert_eq!(by_name["job"] + by_name["call"], outer_ns);
        assert!(to_json(spans).contains("\"parent\": 0"));
    }
}
