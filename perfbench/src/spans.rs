//! The benchmark's span recorder: a span around each call it makes into a
//! layer, kept in memory and written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one request or replayed input.
    pub trace: u64,
    /// This span.
    pub id: u64,
    /// The span that caused it.
    pub parent: Option<u64>,
    /// `layer.operation`, e.g. `sgml.parse`.
    pub name: String,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
}

/// Collects spans while enabled; a disabled recorder only runs the call.
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Recorder {
    /// A recorder that keeps spans (`true`) or records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off; calls already inside a span finish
    /// under the setting they started with.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// A fresh identifier for a trace or span.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f(0);
        }
        let id = self.fresh_id();
        let start_ns = ns_since(self.epoch);
        let out = f(id);
        let end_ns = ns_since(self.epoch);
        self.spans
            .lock()
            .expect("span list lock: no recorder call panics while holding it")
            .push(Span {
                trace,
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        out
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let r = Recorder::new(true);
        let t = r.fresh_id();
        let v = r.span(t, None, "outer", |id| r.span(t, Some(id), "inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(r.durations_us("outer").len(), 1);
        assert_eq!(r.durations_us("inner").len(), 1);
        assert!(r.durations_us("inner")[0] <= r.durations_us("outer")[0]);

        let off = Recorder::new(false);
        assert_eq!(off.span(1, None, "outer", |_| 3), 3);
        assert!(off.durations_us("outer").is_empty());
        off.set_enabled(true);
        off.span(1, None, "outer", |_| ());
        assert_eq!(off.durations_us("outer").len(), 1);
    }
}
