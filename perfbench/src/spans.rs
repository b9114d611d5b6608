//! In-memory spans for the traced run. Each thread keeps its own log; a
//! span has a name, an operation or burst id shared by the spans of one
//! operation, a parent, raw-tick start and end, and the number of units
//! (events, increments) it covered. Logs are written out when the run
//! ends, and a span's self time is its duration minus the part of it
//! that its children cover.

use cnet_util::time::{raw_ticks, Clock};
use std::collections::BTreeMap;
use std::io::Write;

/// Spans kept per thread; later spans are counted but not stored.
pub const SPANS_PER_THREAD: usize = 400_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
    pub units: u64,
}

/// One thread's spans.
#[derive(Debug)]
pub struct SpanLog {
    pub thread: &'static str,
    spans: Vec<Span>,
    lost: u64,
}

/// The current raw tick count, for span boundaries.
#[inline]
pub fn now() -> u64 {
    raw_ticks()
}

impl SpanLog {
    pub fn new(thread: &'static str) -> SpanLog {
        SpanLog {
            thread,
            spans: Vec::with_capacity(1024),
            lost: 0,
        }
    }

    /// Whether another span fits.
    pub fn has_room(&self) -> bool {
        self.spans.len() < SPANS_PER_THREAD
    }

    /// Opens a span that will parent others; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<u32>) -> Option<u32> {
        if !self.has_room() {
            self.lost += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start: now(),
            end: 0,
            units: 0,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn end(&mut self, span: Option<u32>, units: u64) {
        if let Some(i) = span {
            let s = &mut self.spans[i as usize];
            s.end = now();
            s.units = units;
        }
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        (start, end): (u64, u64),
        units: u64,
    ) {
        if !self.has_room() {
            self.lost += 1;
            return;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
            units,
        });
    }
}

/// Totals for one span name across every log.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: f64,
    pub self_ns: f64,
    pub units: u64,
    pub durations_ns: Vec<f64>,
}

impl Agg {
    /// Mean time per covered unit, less the cost of reading the clock
    /// twice (`overhead_ns` per span), never below zero.
    pub fn per_unit_ns(&self, overhead_ns: f64) -> f64 {
        if self.units == 0 {
            return 0.0;
        }
        ((self.total_ns - overhead_ns * self.count as f64) / self.units as f64).max(0.0)
    }

    /// Mean self time per covered unit, less the clock-read cost.
    pub fn self_per_unit_ns(&self, overhead_ns: f64) -> f64 {
        if self.units == 0 {
            return 0.0;
        }
        ((self.self_ns - overhead_ns * self.count as f64) / self.units as f64).max(0.0)
    }

    pub fn p50_ns(&self) -> f64 {
        crate::report::quantile(&self.durations_ns, 0.5)
    }
}

/// Every log's spans, converted to nanoseconds and summarized by name.
#[derive(Debug)]
pub struct Trace {
    pub logs: Vec<SpanLog>,
    pub clock: Clock,
    /// Cost of one empty span (two back-to-back clock reads), ns.
    pub overhead_ns: f64,
}

impl Trace {
    pub fn new(clock: Clock, logs: Vec<SpanLog>) -> Trace {
        Trace {
            overhead_ns: span_overhead_ns(&clock),
            clock,
            logs,
        }
    }

    fn ns(&self, a: u64, b: u64) -> f64 {
        self.clock.raw_to_ns(b) as f64 - self.clock.raw_to_ns(a) as f64
    }

    /// Aggregates by span name, with self times.
    pub fn summarize(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for log in &self.logs {
            let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); log.spans.len()];
            for s in &log.spans {
                if let Some(p) = s.parent {
                    children[p as usize].push((s.start, s.end));
                }
            }
            for (s, kids) in log.spans.iter().zip(children.iter_mut()) {
                let dur = self.ns(s.start, s.end).max(0.0);
                let covered = covered_ticks(s.start, s.end, kids);
                let span_ticks = s.end.saturating_sub(s.start).max(1);
                let covered_ns = dur * (covered as f64 / span_ticks as f64).min(1.0);
                let a = out.entry(s.name).or_default();
                a.count += 1;
                a.total_ns += dur;
                a.self_ns += dur - covered_ns;
                a.units += s.units;
                a.durations_ns.push(dur);
            }
        }
        out
    }

    /// Spans kept in memory.
    pub fn kept(&self) -> usize {
        self.logs.iter().map(|l| l.spans.len()).sum()
    }

    /// Spans recorded past the per-thread cap (counted, not stored).
    pub fn lost(&self) -> u64 {
        self.logs.iter().map(|l| l.lost).sum()
    }

    /// Writes every span as tab-separated text, one span a line, with
    /// times in ns since the trace clock started.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "thread\tindex\tid\tname\tparent\tstart_ns\tend_ns\tunits"
        )?;
        for log in &self.logs {
            for (i, s) in log.spans.iter().enumerate() {
                let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{}\t{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                    log.thread,
                    s.id,
                    s.name,
                    self.clock.raw_to_ns(s.start),
                    self.clock.raw_to_ns(s.end),
                    s.units
                )?;
            }
        }
        w.flush()
    }
}

/// Ticks of `[start, end]` covered by the union of `kids`.
fn covered_ticks(start: u64, end: u64, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let (mut covered, mut reach) = (0u64, start);
    for &(s, e) in kids.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Median cost of an empty span on this host, in ns.
fn span_overhead_ns(clock: &Clock) -> f64 {
    let mut samples: Vec<f64> = (0..10_001)
        .map(|_| {
            let a = now();
            let b = now();
            clock.raw_to_ns(b) as f64 - clock.raw_to_ns(a) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut kids = vec![(30, 50), (10, 20), (15, 25)];
        assert_eq!(covered_ticks(0, 100, &mut kids), 35);
        let mut clipped = vec![(90, 120)];
        assert_eq!(covered_ticks(0, 100, &mut clipped), 10);
    }

    #[test]
    fn summaries_group_by_name_and_keep_units() {
        let mut log = SpanLog::new("t");
        let root = log.begin("op", 1, None);
        let t = now();
        log.push("child", 1, root, (t, t), 4);
        log.end(root, 4);
        let trace = Trace::new(Clock::new(), vec![log]);
        let sum = trace.summarize();
        assert_eq!(sum["op"].count, 1);
        assert_eq!(sum["child"].units, 4);
        assert!(sum["op"].self_ns <= sum["op"].total_ns);
    }
}
