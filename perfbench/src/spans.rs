//! The benchmark's own wall-clock spans, recorded around its calls into
//! the simulator and kept in memory until the run ends. They reuse the
//! simulator's `SpanBook` (span times are nanoseconds since the book was
//! created) and its Chrome-trace exporter.

use mobicast_sim::perfetto::export_chrome_trace;
use mobicast_sim::{SimTime, SpanBook, SpanId, SpanRecord, TimeSeriesSet};
use std::collections::BTreeMap;
use std::time::Instant;

/// Track id of every benchmark span in the Chrome trace.
const TRACK: u64 = 0;

pub struct WallSpans {
    epoch: Instant,
    book: SpanBook,
}

impl WallSpans {
    pub fn new() -> WallSpans {
        WallSpans {
            epoch: Instant::now(),
            book: SpanBook::default(),
        }
    }

    fn at(&self, t: Instant) -> SimTime {
        SimTime::from_nanos(t.saturating_duration_since(self.epoch).as_nanos() as u64)
    }

    /// Open a span starting at `start`, caused by `parent`.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, start: Instant) -> SpanId {
        let at = self.at(start);
        self.book.open(name, TRACK, at, parent)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        let at = self.at(end);
        self.book.close(id, at);
    }

    /// A closed span over `[start, end]`.
    pub fn record(&mut self, name: &str, parent: SpanId, start: Instant, end: Instant) -> SpanId {
        let id = self.open(name, Some(parent), start);
        self.close(id, end);
        id
    }

    pub fn annotate(&mut self, id: SpanId, key: &str, value: f64) {
        self.book.annotate(id, key, value);
    }

    fn records(&self) -> &[SpanRecord] {
        self.book.records()
    }

    /// Self time (duration minus the time its children cover) summed per
    /// span name, in seconds. Children of one span never overlap: the
    /// benchmark runs its phases one after another on one thread.
    pub fn self_secs_by_name(&self) -> BTreeMap<String, f64> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.records() {
            if let Some(p) = s.parent {
                *child_ns.entry(p.0).or_default() += s.duration_ns().unwrap_or(0);
            }
        }
        let mut out = BTreeMap::new();
        for s in self.records() {
            let own = s.duration_ns().unwrap_or(0);
            let children = child_ns.get(&s.id.0).copied().unwrap_or(0);
            *out.entry(s.name.clone()).or_insert(0.0) += own.saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// The spans as a Chrome trace document (open in ui.perfetto.dev).
    pub fn chrome_trace(&self, process_name: &str) -> String {
        export_chrome_trace(process_name, self.records(), &TimeSeriesSet::default())
    }
}

impl Default for WallSpans {
    fn default() -> Self {
        WallSpans::new()
    }
}
