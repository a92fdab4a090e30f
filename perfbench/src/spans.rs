//! Outside-in spans around the calls the benchmark makes into each layer.
//!
//! Every pass and every public call the benchmark times is opened and
//! closed here. Untraced passes keep only the durations (two clock reads
//! per call, a handful of calls per world); traced passes also keep a
//! [`Span`] per call in memory, written out as JSON lines when the run
//! ends.

use std::io::Write;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`scenario.build`, `world.dispatch`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The world (run) this call served, in pass order; `None` for
    /// pass-level spans.
    pub run: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that is open; hand it back to [`Recorder::close`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Collects spans (when keeping) and always measures durations.
pub struct Recorder {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans only while [`Recorder::set_keep`] is on.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            keep: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns span keeping on (traced passes) or off (untraced passes).
    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    /// Opens a span named `name` for world `run`, nested in the innermost
    /// open span.
    pub fn open(&mut self, name: &'static str, run: Option<u64>) -> Open {
        let start = Instant::now();
        let index = self.keep.then(|| {
            let at = self.ns_since_origin(start);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                run,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Closes `open` and returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.ns_since_origin(end);
            self.stack.retain(|&s| s < i);
        }
        end - open.start
    }

    /// How many spans are open; pass it to [`Recorder::unwind`] after a
    /// caught panic.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Forgets the spans a panic left open above `depth` (their end stays
    /// at their start).
    pub fn unwind(&mut self, depth: usize) {
        self.stack.truncate(depth);
    }

    /// For each kept span named `name`, the share of its duration that
    /// its direct children cover.
    pub fn child_coverage(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == name && s.ns() > 0)
            .map(|(s, c)| c as f64 / s.ns() as f64)
            .collect()
    }

    /// Writes the kept spans as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let run = s.run.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{run}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        (at - self.origin).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_spans_nest_under_the_open_parent() {
        let mut rec = Recorder::new();
        rec.set_keep(true);
        let pass = rec.open("pass", None);
        let a = rec.open("a", Some(0));
        rec.close(a);
        let b = rec.open("b", Some(1));
        rec.close(b);
        rec.close(pass);
        let spans = &rec.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].run, Some(1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let coverage = rec.child_coverage("pass");
        assert_eq!(coverage.len(), usize::from(spans[0].ns() > 0));
        assert!(coverage.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new();
        let open = rec.open("pass", None);
        let _ = rec.close(open);
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn unwind_forgets_spans_a_panic_left_open() {
        let mut rec = Recorder::new();
        rec.set_keep(true);
        let pass = rec.open("pass", None);
        let depth = rec.depth();
        let _leaked = rec.open("inner", Some(0));
        rec.unwind(depth);
        let next = rec.open("next", Some(1));
        rec.close(next);
        rec.close(pass);
        assert_eq!(rec.spans[2].parent, Some(0));
        assert_eq!(rec.depth(), 0);
    }
}
