//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that encloses it and the epoch it belongs to — the
//! identifier every span of one epoch shares (set-up spans use epoch
//! `u64::MAX`). Spans stay in memory until the run ends, then go to a
//! JSON-lines file. A disabled tracer records nothing and never reads the
//! clock, so the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::ops::RangeBounds;
use std::time::Instant;

/// The epoch identifier of set-up spans.
pub const SETUP_EPOCH: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `graph.ingest`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Epoch identifier shared by the spans of one epoch.
    pub epoch: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (a no-op handle when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    epoch: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            epoch: SETUP_EPOCH,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the epoch identifier of the spans opened from now on.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            epoch: self.epoch,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name` whose epoch is in
    /// `epochs` (set-up spans belong to [`SETUP_EPOCH`]), in order.
    pub fn durations(&self, name: &str, epochs: impl RangeBounds<u64>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && epochs.contains(&s.epoch))
            .map(Span::seconds)
            .collect()
    }

    /// Tracing's share of `wall_s`: the spans recorded in `epochs` times
    /// the measured cost of recording one ([`span_cost_s`]).
    pub fn overhead(&self, epochs: std::ops::Range<u64>, wall_s: f64) -> f64 {
        let spans = self
            .spans
            .iter()
            .filter(|s| epochs.contains(&s.epoch))
            .count();
        spans as f64 * span_cost_s() / wall_s
    }

    /// The spans as JSON lines: one object per span, `id` its index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let epoch = if s.epoch == SETUP_EPOCH {
                "\"setup\"".to_string()
            } else {
                s.epoch.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"epoch\": {epoch}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Measured cost of recording one span (enter + exit), in seconds: the
/// median over a few rounds of recording many empty spans.
pub fn span_cost_s() -> f64 {
    const SPANS: usize = 20_000;
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new(true);
            let outer = t.enter("calibration");
            let start = Instant::now();
            for _ in 0..SPANS {
                let open = t.enter("calibration.inner");
                t.exit(open);
            }
            let secs = start.elapsed().as_secs_f64();
            t.exit(outer);
            std::hint::black_box(t.spans().len());
            secs / SPANS as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_epoch() {
        let mut t = Tracer::new(true);
        t.set_epoch(3);
        let outer = t.enter("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.epoch == 3 && s.end_ns >= s.start_ns));
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x");
        t.exit(open);
        assert!(t.spans().is_empty());
    }
}
