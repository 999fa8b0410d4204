//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the system under test is
//! instrumented; a span is opened and closed in this package's files.
//!
//! A span is `{name, start, end, parent, run_id}`; its *self time* is its
//! duration minus the part covered by its children. The recorder is off
//! in end-to-end runs (`enabled == false` makes `open`/`close` no-ops),
//! so the same script serves both kinds of run.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Which repetition of its phase the span belongs to.
    pub run_id: u32,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run_id: u32,
}

/// Handle returned by [`Tracer::open`]; pass it back to `close`.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            run_id: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run_id: self.run_id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx].end_ns = self.now();
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans close in LIFO order");
            self.stack.pop();
        }
    }

    /// Time a call as one span and hand back its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Append spans recorded elsewhere (client threads keep their own
    /// recorder on the same origin); they keep no parent.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time in seconds of every span called `name`, one value per
    /// span, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9)
            .collect()
    }

    /// Total duration in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The span file: one JSON object per span, in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"run_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.open("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(outer);
        let total = t.durations("outer")[0];
        let own = t.self_times("outer")[0];
        let inner = t.durations("inner")[0];
        assert!(inner >= 0.005 && (total - inner - own).abs() < 1e-9);
        assert!(t.to_json("w", 1).contains("\"parent\":0"));

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", || 7), 7);
        assert_eq!(off.len(), 0);
    }
}
