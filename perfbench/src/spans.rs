//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer:
//! name, start, end, parent span and request id. Spans stay in memory
//! while the run measures and are written out as JSON lines when it ends.
//! A layer's self time is its span's duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Spans`] log.
pub type SpanId = u32;

const NO_PARENT: SpanId = SpanId::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

/// A span log and its clock. Callers take timestamps with [`Spans::now`]
/// either way and record spans only when [`Spans::is_on`], so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed self times (duration minus children), nanoseconds.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, microseconds.
    #[must_use]
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

impl Spans {
    /// A clock for an untraced phase: [`Spans::is_on`] is false.
    #[must_use]
    pub fn disabled() -> Self {
        Spans {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
        }
    }

    /// A clock whose callers record spans.
    #[must_use]
    pub fn enabled() -> Self {
        Spans {
            on: true,
            ..Self::disabled()
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the log's epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Moves the end of span `id` (one recorded before its end was known).
    pub fn set_end(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a span with explicit times (nanoseconds since the epoch);
    /// returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        assert!(id != NO_PARENT, "span log full");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.unwrap_or(NO_PARENT),
            request,
        });
        id
    }

    /// Duration and self time per span name. Children of one span are
    /// assumed not to overlap each other (every call site here is
    /// sequential), so their covered time is their summed duration,
    /// clamped to the parent's.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
            if s.parent == NO_PARENT {
                writeln!(out, ",\"parent\":null}}")?;
            } else {
                writeln!(out, ",\"parent\":{}}}", s.parent)?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::enabled();
        let op = s.record("op", 0, 100, None, 7);
        s.record("a", 10, 40, Some(op), 7);
        s.record("b", 50, 90, Some(op), 7);
        let t = s.layer_times();
        assert_eq!(t["op"].self_ns, 30);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 40);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root span");
    }

    #[test]
    fn set_end_extends_a_root_recorded_early() {
        let mut s = Spans::enabled();
        let root = s.record("request", 0, 0, None, 1);
        s.record("verify", 60, 80, Some(root), 1);
        s.set_end(root, 100);
        assert_eq!(s.layer_times()["request"].self_ns, 80);
    }
}
