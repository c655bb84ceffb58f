//! In-memory spans recorded around the public calls into each layer,
//! and the self-time summary computed from them.
//!
//! A span has a layer name, a start and end (ns since the trace began),
//! the span that caused it, and the step it belongs to. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `opt.adamw`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin.
    pub end: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// Step id.
    pub id: u64,
}

/// A trace: spans kept in memory until [`Trace::write_jsonl`].
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the trace origin.
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let t = self.now();
        self.record(Span {
            name,
            start: t,
            end: t,
            parent,
            id,
        })
    }

    /// Close span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Append a finished span and return its index.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start, s.end, parent, s.id
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let mut covered = 0u64;
            let mut reach = s.start;
            kids.sort_unstable();
            for &(a, b) in kids.iter() {
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

/// Per-layer totals: span count and summed self time (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans of this layer.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Self time summed per layer name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.self_ns += t;
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
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("step", 0, 100, None),
            span("ddp", 10, 60, Some(0)),
            span("forward", 10, 30, Some(1)),
            span("backward", 30, 55, Some(1)),
            span("opt", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 20, 50 - 45, 20, 25, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("ddp", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 170, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100,170) and [190,200) = 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn layer_totals_sum_self_time() {
        let spans = vec![
            span("step", 0, 100, None),
            span("opt", 10, 20, Some(0)),
            span("step", 100, 150, None),
            span("opt", 110, 140, Some(2)),
        ];
        let t = by_layer(&spans);
        assert_eq!(
            t["step"],
            LayerTotal {
                calls: 2,
                self_ns: 90 + 20
            }
        );
        assert_eq!(
            t["opt"],
            LayerTotal {
                calls: 2,
                self_ns: 40
            }
        );
    }

    #[test]
    fn trace_records_nested_spans() {
        let mut tr = Trace::new();
        let outer = tr.open("outer", None, 7);
        let inner = tr.open("inner", Some(outer), 7);
        tr.close(inner);
        tr.close(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);
    }
}
