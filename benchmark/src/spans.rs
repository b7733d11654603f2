//! In-memory spans for the traced run: recorded around the benchmark's
//! calls into each layer, kept in memory, written out once at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the enclosing span, `op` is the
/// step or request the span belongs to (spans of one operation share it).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single thread's span recorder. Threads that trace concurrently each
/// own one, created from the same `origin`, and are merged with `absorb`.
pub struct Tracer {
    pub origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span that was timed by the caller (`start` → now).
    pub fn closed_span(&mut self, name: &'static str, op: u64, start: Instant) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Appends another thread's finished spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span, its duration minus what its direct children cover.
    /// Children of one span run on one thread, so they never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ns().min(own[p]);
            }
        }
        own
    }

    /// Milliseconds of every span called `name`, in recording order.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// `self_time / duration` of every span called `name`.
    pub fn self_share_of(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && s.ns() > 0)
            .map(|(s, &o)| o as f64 / s.ns() as f64)
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let own = self.self_ns();
        let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [\n");
        for (i, (s, own_ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"self\": {own_ns}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-written spans: 0 = [0,100) parent of 1 = [10,30)
    /// and 2 = [40,90); 2 is parent of 3 = [50,60); 4 = [100,120) alone.
    fn sample() -> Tracer {
        let mut t = Tracer::new(Instant::now());
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 7,
        };
        t.spans = vec![
            mk("step", 0, 100, None),
            mk("a", 10, 30, Some(0)),
            mk("b", 40, 90, Some(0)),
            mk("c", 50, 60, Some(2)),
            mk("step", 100, 120, None),
        ];
        t
    }

    #[test]
    fn self_time_subtracts_siblings_and_only_direct_children() {
        let t = sample();
        // step: 100 − (20 + 50); b: 50 − 10; leaves keep their duration.
        assert_eq!(t.self_ns(), vec![30, 20, 40, 10, 20]);
        assert_eq!(t.self_share_of("step"), vec![0.3, 1.0]);
        assert_eq!(t.ms_of("b"), vec![50.0 / 1e6]);
    }

    #[test]
    fn nested_closures_record_parents_and_absorb_rebases_them() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let got = t.span("outer", 1, |t| {
            t.span("inner", 1, |_| 5) + t.span("inner", 1, |_| 6)
        });
        assert_eq!(got, 11);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);

        let mut other = Tracer::new(origin);
        other.span("outer", 2, |t| t.span("inner", 2, |_| ()));
        t.absorb(other);
        assert_eq!(t.spans[4].parent, Some(3));
    }

    #[test]
    fn trace_document_parses_and_lists_every_span() {
        let doc = crate::json::parse(&sample().to_json("w")).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[3].get("parent").unwrap().as_f64(), Some(2.0));
        assert_eq!(spans[0].get("self").unwrap().as_f64(), Some(30.0));
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("w"));
    }
}
