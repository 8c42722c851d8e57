//! The benchmark's own span recorder.
//!
//! Spans are taken *around* calls into the program's layers, from the
//! benchmark's files (the program carries no spans for this). Each has
//! a name, start, end, the span it is nested in and a session id; all
//! are kept in memory and written as JSON lines when the stage ends.
//! A layer's self time is its spans' duration minus the part their
//! child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, to be given back to [`SpanRecorder::exit`].
#[derive(Clone, Copy, Debug)]
#[must_use = "an entered span must be exited"]
pub struct SpanId(u32);

/// Per-name totals derived from a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records nested spans on one thread. A disabled recorder takes no
/// timestamps and stores nothing, so the same code path runs with spans
/// off to price the recording itself.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    enabled: bool,
    /// Identifier shared by all spans of this recorder: one replayed
    /// session.
    session: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanRecorder {
    pub fn new(enabled: bool, session: u32) -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            enabled,
            session,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        // Never 0: 0 marks a span that is still open.
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Durations in ns of every span called `name`.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes one JSON object per span: `name`, `start_ns`, `end_ns`,
    /// `parent` (line index of the enclosing span, or null), `session`.
    pub fn write_jsonl(&self, out: impl Write) -> io::Result<()> {
        let mut out = io::BufWriter::new(out);
        for s in &self.spans {
            write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => out.write_all(b"null")?,
            }
            writeln!(out, ",\"session\":{}}}", self.session)?;
        }
        out.flush()
    }
}

/// Self time of each span is its duration minus the part of that
/// interval its direct children cover (children are clipped to the
/// parent and never overlap each other: one thread, strict nesting).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        // replay [0,100) ─ callback [10,60) ─ engine [15,35), wire [40,50)
        //                └ callback [70,90) ─ engine [70,90)
        let spans = vec![
            span("replay", 0, 100, None),
            span("callback", 10, 60, Some(0)),
            span("engine", 15, 35, Some(1)),
            span("wire", 40, 50, Some(1)),
            span("callback", 70, 90, Some(0)),
            span("engine", 70, 90, Some(4)),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t["replay"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["callback"],
            LayerTime {
                count: 2,
                total_ns: 70,
                self_ns: 20
            }
        );
        assert_eq!(
            t["engine"],
            LayerTime {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(
            t["wire"],
            LayerTime {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root: nothing is counted twice.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![span("outer", 10, 20, None), span("inner", 5, 50, Some(0))];
        let t = layer_times(&spans);
        assert_eq!(t["outer"].self_ns, 0, "covered entirely, never negative");
        assert_eq!(t["inner"].self_ns, 45);
    }

    #[test]
    fn recorder_nests_and_its_self_times_sum_to_the_root() {
        let mut rec = SpanRecorder::new(true, 3);
        let root = rec.enter("root");
        for _ in 0..3 {
            let mid = rec.enter("mid");
            let leaf = rec.enter("leaf");
            std::hint::black_box((0..1000u64).sum::<u64>());
            rec.exit(leaf);
            rec.exit(mid);
        }
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let t = rec.by_name();
        assert_eq!(t["leaf"].count, 3);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, spans[0].duration_ns());
        assert_eq!(rec.durations_of("mid").len(), 3);
    }

    #[test]
    fn a_disabled_recorder_stores_nothing() {
        let mut rec = SpanRecorder::new(false, 0);
        let a = rec.enter("a");
        let b = rec.enter("b");
        rec.exit(b);
        rec.exit(a);
        assert!(rec.spans().is_empty());
        assert!(rec.by_name().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = SpanRecorder::new(true, 0);
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut rec = SpanRecorder::new(true, 9);
        let a = rec.enter("engine.deliver");
        let b = rec.enter("wire.encode");
        rec.exit(b);
        rec.exit(a);
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::Json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("name"),
            Some(&crate::json::Json::str("engine.deliver"))
        );
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(first.get("session").and_then(|v| v.as_f64()), Some(9.0));
        let second = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }
}
