//! In-memory spans around the public calls into each layer, and the
//! attribution of a wire latency to the layers beneath it.
//!
//! A span records its name, start, end, parent and session. Spans stay in
//! a `Vec` and are only aggregated when the traced run ends, so recording
//! one costs two clock reads and a push. A tracer that is off records
//! nothing and reads no clock, so the same code runs with and without
//! spans and the difference is the tracing's own cost.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::percentiles;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `et-core.present`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Session the call worked on (0 when none).
    pub session: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            on: true,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            on: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, session: u64) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Renames span `id` once its outcome is known (a cadence snapshot that
    /// turned out due, say).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        if self.on {
            self.spans[id].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        session: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, session);
        let r = f();
        self.end(id);
        r
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// `q`-quantile of the durations of spans named `name`, µs.
    pub fn quantile_us(&self, name: &str, q: f64) -> Option<f64> {
        percentiles(&self.durations_us(name), &[q])[0]
    }

    /// Self time of each span name (duration minus the part its children
    /// cover), summed, µs: where the time went, layer by layer.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            *out.entry(s.name).or_insert(0.0) += s.us() - c;
        }
        out
    }
}

/// How much of a wire latency the in-process stages explain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// Sum of the stage medians, µs.
    pub stage_sum_us: f64,
    /// The wire median, µs.
    pub wire_us: f64,
}

impl Attribution {
    /// Sums the stage medians under one wire median.
    pub fn new(stage_p50s_us: &[f64], wire_us: f64) -> Self {
        Self {
            stage_sum_us: stage_p50s_us.iter().sum(),
            wire_us,
        }
    }

    /// Share of the wire latency the stages account for.
    pub fn fraction(&self) -> f64 {
        if self.wire_us > 0.0 {
            self.stage_sum_us / self.wire_us
        } else {
            0.0
        }
    }

    /// Wire latency the stages do not explain (transport, completion-queue
    /// wait, client), µs; negative when the stages overlap or the wire ran
    /// faster than the stages did in isolation.
    pub fn unattributed_us(&self) -> f64 {
        self.wire_us - self.stage_sum_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sum_yields_the_attributed_fraction() {
        let a = Attribution::new(&[300.0, 50.0, 50.0], 500.0);
        assert_eq!(a.stage_sum_us, 400.0);
        assert!((a.fraction() - 0.8).abs() < 1e-12);
        assert!((a.unattributed_us() - 100.0).abs() < 1e-12);
        assert_eq!(Attribution::new(&[1.0], 0.0).fraction(), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let round = t.begin("round", None, 1);
        let child = t.begin("present", Some(round), 1);
        t.end(child);
        t.end(round);
        // Make the numbers exact instead of clock-dependent.
        t.spans[round].start_ns = 0;
        t.spans[round].end_ns = 10_000;
        t.spans[child].start_ns = 1_000;
        t.spans[child].end_ns = 7_000;
        let st = t.self_time_us();
        assert_eq!(st["round"], 4.0);
        assert_eq!(st["present"], 6.0);
        assert_eq!(t.quantile_us("present", 0.5), Some(6.0));
    }

    #[test]
    fn an_off_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::off();
        let round = t.begin("round", None, 1);
        assert_eq!(t.span("present", Some(round), 1, || 7), 7);
        t.rename(round, "renamed");
        t.end(round);
        assert!(t.spans().is_empty());
    }
}
