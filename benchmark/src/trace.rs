//! In-memory span recorder for the traced run.
//!
//! The benchmark sees each layer only from outside, so a span is the
//! interval of one call into a layer's public function, opened and
//! closed in the benchmark's own code. Spans nest: a layer's *self
//! time* is its span's duration minus what its children cover. With
//! tracing off every method is one branch.

use std::fmt::Write as _;
use std::time::Instant;

/// The most spans kept; later ones are only counted. Bounds memory on
/// the request-level spans of `live_verbs` (hundreds of thousands a
/// second).
const MAX_SPANS: usize = 200_000;

/// One recorded span.
struct Span {
    name: &'static str,
    /// The crate the call went into (`bench` for the generator's own
    /// grouping spans).
    layer: &'static str,
    parent: Option<u32>,
    /// Repetition the span belongs to: spans of one repetition share it.
    rep: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle to an open span.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// The recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Innermost open span.
    current: Option<u32>,
    rep: u32,
    dropped: u64,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: None,
            rep: 0,
            dropped: 0,
        }
    }

    /// Is recording on?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Set the repetition id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            parent: self.current,
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
        });
        self.current = Some(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::open`]. Spans close innermost
    /// first.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, name);
        let out = f();
        self.close(id);
        out
    }

    /// Spans recorded, and spans dropped at the cap.
    pub fn counts(&self) -> (u64, u64) {
        (self.spans.len() as u64, self.dropped)
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// its direct children's, summed by layer.
    pub fn self_ns_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: Vec<(&'static str, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, ns)) => *ns += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer
    }

    /// The spans as one JSON document: an array of
    /// `{id, parent, rep, layer, name, start_ns, end_ns}` in opening
    /// order (`parent` is `null` for a root).
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (id, sp) in self.spans.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{id},\"parent\":{parent},\"rep\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                sp.rep, sp.layer, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("ftsh", "parse", || 7);
        assert_eq!(v, 7);
        assert_eq!(t.counts(), (0, 0));
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let outer = t.open("bench", "rep");
        let inner = t.open("ftsh", "parse");
        t.close(inner);
        let inner2 = t.open("ftsh", "compile");
        t.close(inner2);
        t.close(outer);
        // Pin the clock readings so the arithmetic is exact.
        let set = |s: &mut Span, a, b| (s.start_ns, s.end_ns) = (a, b);
        set(&mut t.spans[0], 0, 100);
        set(&mut t.spans[1], 10, 40);
        set(&mut t.spans[2], 50, 70);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.self_ns_by_layer(), vec![("bench", 50), ("ftsh", 50)]);
        let json = t.to_json("w");
        assert!(json.contains("\"id\":1,\"parent\":0,\"rep\":3,\"layer\":\"ftsh\",\"name\":\"parse\",\"start_ns\":10,\"end_ns\":40"));
        assert!(json.contains("\"id\":0,\"parent\":null"));
    }
}
