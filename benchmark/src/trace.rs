//! Spans recorded by the harness around its own calls into the layers.
//!
//! A span is `{span, parent, id, name, start_ns, end_ns}`: `span` is
//! unique, `parent` is the span that caused it, and `id` is shared by all
//! spans of one request (a sweep point, a daemon job, a client call).
//! Spans stay in memory and are written out once, when the run ends. A
//! disabled tracer records nothing, which is what an untraced run uses.

use crate::json::{self, num, obj, text, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub span: u32,
    pub parent: Option<u32>,
    pub id: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn to_json(&self) -> Json {
        obj([
            ("span", num(f64::from(self.span))),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| num(f64::from(p))),
            ),
            ("id", text(&self.id)),
            ("name", text(&self.name)),
            ("start_ns", num(self.start_ns as f64)),
            ("end_ns", num(self.end_ns as f64)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Span, String> {
        let as_id = |v: u64| u32::try_from(v).map_err(|_| format!("span id {v} out of range"));
        Ok(Span {
            span: as_id(json::get_u64(doc, "span")?)?,
            parent: match doc.get("parent") {
                None | Some(Json::Null) => None,
                Some(_) => Some(as_id(json::get_u64(doc, "parent")?)?),
            },
            id: json::get_str(doc, "id")?.to_string(),
            name: json::get_str(doc, "name")?.to_string(),
            start_ns: json::get_u64(doc, "start_ns")?,
            end_ns: json::get_u64(doc, "end_ns")?,
        })
    }
}

/// An open span: close it with [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Open {
    /// The span's id, for use as an explicit parent; `None` when tracing
    /// is off.
    pub fn span(self) -> Option<u32> {
        self.0
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` on the tracer's clock (0 for an instant before its creation).
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now.
    pub fn enter(&mut self, name: &str, id: &str, parent: Option<u32>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        Open(Some(self.push(name, id, parent, now, now)))
    }

    /// Closes a span at the current time.
    pub fn exit(&mut self, open: Open) {
        if let Some(span) = open.0 {
            let now = self.now_ns();
            self.spans[span as usize].end_ns = now;
        }
    }

    /// Records a span whose ends were timed elsewhere (for example from
    /// the arrival times of two progress events).
    pub fn record(
        &mut self,
        name: &str,
        id: &str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            self.push(name, id, parent, start_ns, end_ns.max(start_ns));
        }
    }

    fn push(
        &mut self,
        name: &str,
        id: &str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let span = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            span,
            parent,
            id: id.to_string(),
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        span
    }

    /// Spans recorded so far; the id the next span will get.
    pub fn span_count(&self) -> u32 {
        u32::try_from(self.spans.len()).expect("fewer than 2^32 spans")
    }

    /// Takes over a span recorded by another tracer (a child process):
    /// ids are shifted by `base`, times by `offset_ns`, and a span without
    /// a parent of its own hangs under `parent`. Adopt a tracer's spans in
    /// their original order, with `base` read before the first.
    pub fn adopt(&mut self, s: Span, base: u32, parent: Option<u32>, offset_ns: u64) {
        if self.enabled {
            let span = self.push(
                &s.name,
                &s.id,
                s.parent.map(|p| base + p).or(parent),
                s.start_ns + offset_ns,
                s.end_ns + offset_ns,
            );
            debug_assert_eq!(span, base + s.span);
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes spans one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for s in spans {
        text.push_str(&json::render(&s.to_json())?);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads a file [`write_jsonl`] wrote. Line by line on purpose: the
/// workspace's JSON parser re-validates the rest of its input at every
/// string character, so one 5 MB document takes minutes and 45 000 short
/// lines take milliseconds.
pub fn read_jsonl(path: &Path) -> Result<Vec<Span>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?
        .lines()
        .map(|l| Json::parse(l).and_then(|doc| Span::from_json(&doc)))
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of each span's interval its children cover.
    pub self_ns: u64,
}

/// Self time per span name. A span's self time is its duration minus the
/// union of its children's intervals, each clipped to the span's own.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.span) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("a", "r", None);
        t.record("b", "r", o.span(), 1, 2);
        t.exit(o);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let span = |span, parent, name: &str, start_ns, end_ns| Span {
            span,
            parent,
            id: "r".to_string(),
            name: name.to_string(),
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "kid", 10, 40),
            span(2, Some(0), "kid", 30, 60),  // overlaps the first
            span(3, Some(0), "kid", 90, 150), // sticks out past the parent
        ];
        let t = self_times(&spans);
        // Covered: [10,60) and [90,100) = 60 of 100.
        assert_eq!(
            t["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(t["kid"].count, 3);
        assert_eq!(t["kid"].self_ns, t["kid"].total_ns);
    }

    #[test]
    fn adopted_spans_keep_their_tree() {
        let mut child = Tracer::new(true);
        let root = child.enter("c.root", "r", None);
        child.record("c.leaf", "r", root.span(), 5, 9);
        child.exit(root);
        let mut parent = Tracer::new(true);
        let round = parent.enter("round", "r", None);
        let base = parent.span_count();
        for s in child.into_spans() {
            parent.adopt(s, base, round.span(), 1_000);
        }
        let spans = parent.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1_005, 1_009));
    }

    #[test]
    fn spans_round_trip_through_json() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", "r1", None);
        t.record("leaf", "r1", root.span(), 5, 9);
        t.exit(root);
        for s in t.into_spans() {
            assert_eq!(Span::from_json(&s.to_json()).unwrap(), s);
        }
    }
}
