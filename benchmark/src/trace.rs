//! In-memory spans recorded by the harness around its calls into each layer,
//! written out when the run ends.
//!
//! Spans inside the engine do not exist yet, so two kinds of span are
//! recorded: *timed* spans around a public call, and *derived* spans whose
//! duration is a counter the engine reports about the enclosing call (codec
//! nanoseconds inside a chunk fetch, server-side busy time inside a round
//! trip). A derived span's duration is exact; its position inside the parent
//! is nominal.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer of the harness's own root spans: their self time is what no layer
/// accounts for.
pub const HARNESS: &str = "harness";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    /// Spans of one query execution share this id.
    pub query: u32,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub derived: bool,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a timed span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        query: u32,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { parent, query, name, layer, start_ns, end_ns, derived: false });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        parent: Option<usize>,
        query: u32,
        name: &'static str,
        layer: &'static str,
    ) -> usize {
        let now = Instant::now();
        self.record(parent, query, name, layer, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record a counter-derived child of `parent` lasting `nanos`.
    pub fn derived(&mut self, parent: usize, name: &'static str, layer: &'static str, nanos: u64) {
        let Span { query, start_ns, .. } = self.spans[parent];
        self.spans.push(Span {
            parent: Some(parent),
            query,
            name,
            layer,
            start_ns,
            end_ns: start_ns + nanos,
            derived: true,
        });
    }

    /// Append another thread's spans (recorded against the same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }
}

/// Each span's self time: its duration minus the part its children cover.
/// Timed children cover the union of their intervals (clipped to the
/// parent); derived children cover their summed durations on top.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut timed: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut derived = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            if span.derived {
                derived[p] += span.duration();
            } else {
                let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
                timed[p].push((span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi)));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            timed[i].sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for &(start, end) in &timed[i] {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered + derived[i])
        })
        .collect()
}

/// Self time per layer over the trees rooted at spans named `root_name`,
/// plus those roots' total duration.
pub fn layer_self_times(spans: &[Span], root_name: &str) -> (BTreeMap<&'static str, u64>, u64) {
    let selfs = self_times(spans);
    // Parents are recorded before their children, so one forward sweep
    // resolves every span's root.
    let mut in_tree = vec![false; spans.len()];
    let mut layers = BTreeMap::new();
    let mut total = 0;
    for (i, span) in spans.iter().enumerate() {
        in_tree[i] = match span.parent {
            None => span.name == root_name,
            Some(p) => in_tree[p],
        };
        if in_tree[i] {
            *layers.entry(span.layer).or_insert(0) += selfs[i];
            if span.parent.is_none() {
                total += span.duration();
            }
        }
    }
    (layers, total)
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("query", Json::Num(f64::from(s.query))),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("derived", Json::Bool(s.derived)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { parent, query: 1, name: "query", layer, start_ns, end_ns, derived: false }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut spans = vec![
            span(None, HARNESS, 0, 100),
            // Overlapping children cover their union, [10, 50), once.
            span(Some(0), "exec", 10, 40),
            span(Some(0), "exec", 30, 50),
            // A child reaching past the parent is clipped to it: [90, 100).
            span(Some(0), "wire", 90, 130),
            // A grandchild reduces its parent, not the root.
            span(Some(1), "source", 10, 15),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 40, 5]);

        // A derived child's duration comes off on top of the timed union.
        spans.push(Span { derived: true, ..span(Some(2), "codec", 30, 37) });
        assert_eq!(self_times(&spans)[2], 13);
        // Coverage never exceeds the parent.
        spans.push(Span { derived: true, ..span(Some(4), "codec", 10, 99) });
        assert_eq!(self_times(&spans)[4], 0);
    }

    #[test]
    fn layer_totals_follow_only_the_named_roots() {
        let spans = vec![
            span(None, HARNESS, 0, 100),
            span(Some(0), "exec", 0, 60),
            Span { name: "replay", ..span(None, HARNESS, 100, 200) },
            span(Some(2), "wire", 100, 200),
            span(Some(1), "source", 0, 20),
        ];
        let (layers, total) = layer_self_times(&spans, "query");
        assert_eq!(total, 100);
        assert_eq!(layers.get("exec"), Some(&40));
        assert_eq!(layers.get("source"), Some(&20));
        assert_eq!(layers.get(HARNESS), Some(&40));
        assert_eq!(layers.get("wire"), None);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open(None, 1, "query", HARNESS);
        a.close(root);
        let mut b = Tracer::new(epoch);
        let other = b.open(None, 2, "cycle", HARNESS);
        b.derived(other, "decode", "codec", 5);
        a.absorb(b);
        assert_eq!(a.spans[1].parent, None);
        assert_eq!(a.spans[2].parent, Some(1));
        assert!(a.spans[2].derived && a.spans[2].query == 2);
    }
}
