//! In-memory span recorder for the traced replay.
//!
//! A span is `(name, start, end, parent, cell)`. Spans nest strictly
//! (the replay is single-threaded), so a span's self time is its
//! duration minus the durations of its direct children. Spans stay in
//! memory until [`Tracer::write_tsv`] writes them out at the end.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::stats::{percentile, tail_permille};

/// Index of a span in the recorder, or `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    cell: u32,
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// same replay code gives the untraced baseline of the overhead metric.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cell: u32,
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Total self time, milliseconds.
    pub self_ms: f64,
    /// Median span duration, microseconds.
    pub p50_us: f64,
    /// Span duration at [`LayerStats::tail_pct`], microseconds.
    pub tail_us: f64,
    /// The highest percentile with at least ten spans beyond it.
    pub tail_pct: f64,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    /// Tags the spans opened from now on with `cell`.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Drops `id`, which must be the innermost open span and the last
    /// one opened: the work it covered is not counted.
    pub fn discard(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        debug_assert_eq!(
            self.spans.len() as u32,
            id.0 + 1,
            "only a childless span can be dropped"
        );
        self.open.pop();
        self.spans.pop();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans per name recorded for `cell`.
    pub fn calls(&self, cell: u32) -> BTreeMap<&'static str, u64> {
        let mut calls = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.cell == cell) {
            *calls.entry(s.name).or_default() += 1;
        }
        calls
    }

    /// Calls, self time and duration percentiles per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(dur as f64 / 1e3);
            entry.1 += dur.saturating_sub(child);
        }
        by_name
            .into_iter()
            .map(|(name, (mut durations, self_ns))| {
                durations.sort_by(f64::total_cmp);
                let tail = tail_permille(durations.len());
                let stats = LayerStats {
                    calls: durations.len() as u64,
                    self_ms: self_ns as f64 / 1e6,
                    p50_us: percentile(&durations, 500),
                    tail_us: percentile(&durations, tail),
                    tail_pct: tail as f64 / 10.0,
                };
                (name, stats)
            })
            .collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id name cell parent start_ns end_ns` (`-` for no parent).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tname\tcell\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.cell, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", || {});
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let layers = t.layers();
        assert_eq!(layers["outer"].calls, 2);
        assert_eq!(layers["inner"].calls, 1);
        assert!(layers["inner"].self_ms >= 2.0);
        assert!(layers["outer"].self_ms < layers["inner"].self_ms);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("a", || 7);
        assert_eq!(x, 7);
        assert!(t.is_empty());
        assert!(t.layers().is_empty());
    }
}
