//! In-memory span recording around the benchmark's own calls into each
//! layer, and the self-time computation the per-layer metrics use.
//!
//! A span holds its name, start, end, parent span and request id. Spans
//! stay in memory while the replay runs and are written out as NDJSON when
//! the run ends. A layer's self time is its span's duration minus the part
//! of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u32,
}

/// Span recorder. When off, entering and leaving spans reads no clock and
/// records nothing, so an untraced replay runs the same calls bare.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Request id stamped on spans opened from now on.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.stack.pop().expect("span exit without enter");
        self.spans[i].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one NDJSON line.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per call in microseconds (0 without calls).
    pub fn self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.total_ns += s.end - s.start;
        a.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // request [0,100) ⊃ parse [10,20), search [30,90) ⊃ bound [40,50).
        let spans = [
            span("request", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("search", 30, 90, Some(0)),
            span("bound", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 50, 10]);
        let agg = by_name(&spans);
        assert_eq!(agg["search"].total_ns, 60);
        assert_eq!(agg["search"].self_ns, 50);
        assert_eq!(agg["request"].calls, 1);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10,60) and [90,100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        t.enter("outer");
        let v = t.span("inner", || 41 + 1);
        t.exit();
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].req, 7);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let mut buf = Vec::new();
        t.write_ndjson(&mut buf).expect("writes to a Vec");
        assert_eq!(String::from_utf8(buf).expect("ascii").lines().count(), 2);

        let mut off = Tracer::new(false);
        off.enter("outer");
        off.span("inner", || ());
        off.exit();
        assert!(off.spans().is_empty());
    }
}
