//! Spans recorded from outside the program, around each call into a
//! layer.
//!
//! Spans live in a [`sharing_obs::TraceBuffer`] for the whole run and
//! are written once, at the end, as Chrome trace JSON (Perfetto opens
//! it). Each span carries its own id, its parent's id and the run id as
//! arguments, plus nanosecond start and end stamps: the buffer's own
//! timestamps are whole microseconds, too coarse for a JSON encode.

use sharing_json::Json;
use sharing_obs::{Clock, Phase, SpanEvent, TraceBuffer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The id of "no parent".
pub const ROOT: u64 = 0;

/// A span sink for one traced run.
#[derive(Debug)]
pub struct Tracer {
    buf: TraceBuffer,
    base: Instant,
    next: AtomicU64,
    run: u64,
}

/// One open span; recorded when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: String,
    cat: &'static str,
    track: u64,
    start_ns: u64,
}

/// A recorded span, read back for analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct Rec {
    /// Span id.
    pub id: u64,
    /// Parent span id ([`ROOT`] for none).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Layer the span times.
    pub cat: String,
    /// Track (worker) the span ran on.
    pub track: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Rec {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

impl Tracer {
    /// A tracer whose spans carry run id `run`.
    #[must_use]
    pub fn new(run: u64) -> Self {
        Tracer {
            buf: TraceBuffer::new(),
            base: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            run,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` in layer `cat` on `track`, under
    /// `parent`.
    #[must_use]
    pub fn span(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        track: u64,
        parent: u64,
    ) -> Span<'_> {
        Span {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            cat,
            track,
            start_ns: self.now_ns(),
        }
    }

    /// The underlying buffer (the dc simulator records its logical
    /// spans straight into it).
    #[must_use]
    pub fn buffer(&self) -> &TraceBuffer {
        &self.buf
    }

    /// Every wall-clock span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Rec> {
        self.buf
            .snapshot()
            .into_iter()
            .filter(|e| e.clock == Clock::Wall && e.phase == Phase::Complete)
            .filter_map(|e| {
                let arg = |k: &str| {
                    e.args
                        .iter()
                        .find(|(key, _)| key == k)
                        .and_then(|(_, v)| v.as_int())
                        .and_then(|v| u64::try_from(v).ok())
                };
                Some(Rec {
                    id: arg("id")?,
                    parent: arg("parent")?,
                    name: e.name.clone(),
                    cat: e.cat.to_string(),
                    track: e.track,
                    start_ns: arg("start_ns")?,
                    end_ns: arg("end_ns")?,
                })
            })
            .collect()
    }

    /// Writes the whole buffer as Chrome trace JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.buf.to_chrome_json())
    }
}

impl Span<'_> {
    /// This span's id, for children to name as their parent.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let int = |v: u64| Json::Int(i128::from(v));
        self.tracer.buf.record(SpanEvent::wall(
            std::mem::take(&mut self.name),
            self.cat,
            self.track,
            self.start_ns / 1_000,
            (end_ns - self.start_ns) / 1_000,
            vec![
                ("id".into(), int(self.id)),
                ("parent".into(), int(self.parent)),
                ("run".into(), int(self.tracer.run)),
                ("start_ns".into(), int(self.start_ns)),
                ("end_ns".into(), int(end_ns)),
            ],
        ));
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
#[must_use]
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it its children cover, summed by the span's layer.
#[must_use]
pub fn self_time_by_layer(spans: &[Rec]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let own = s.dur_ns() - covered(kids, s.start_ns, s.end_ns);
        *out.entry(s.cat.clone()).or_default() += own as f64 / 1e9;
    }
    out
}

/// Durations in seconds of every span whose name is `name`.
#[must_use]
pub fn durations_s(spans: &[Rec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Total seconds of every span whose name is `name`.
#[must_use]
pub fn total_s(spans: &[Rec], name: &str) -> f64 {
    durations_s(spans, name).iter().sum()
}
