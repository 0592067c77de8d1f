//! Span recording around the benchmark's calls into each crate.
//!
//! Spans are taken from outside the library: one `job` span per job and,
//! inside it, one span per public call the job makes, tagged with the
//! crate (layer) that owns the callee. Spans stay in memory and are
//! written out once, when the run ends. With recording off, [`Tracer::span`]
//! calls straight through without reading the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer name of the per-job root span. Its self time is the benchmark's
/// own glue between calls.
pub const JOB: &str = "job";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The job this span belongs to; the job's root span is the parent of
    /// every other span with the same id.
    pub job: u32,
    /// Crate owning the callee, or [`JOB`] for the root span.
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Start and end, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    /// Whether spans are recorded at all.
    pub on: bool,
    epoch: Instant,
    job: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            job: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as a call into `layer`, recording a span when tracing is on.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            job: self.job,
            layer,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Run one whole job under a fresh root span.
    pub fn job<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.job += 1;
        if !self.on {
            return f(self);
        }
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        let job = self.job;
        self.spans.push(Span {
            job,
            layer: JOB,
            name: "job",
            start_ns,
            end_ns,
        });
        out
    }

    /// Self time per layer in nanoseconds, summed over all recorded jobs:
    /// each span's duration minus the part covered by its children. Only
    /// root spans have children, and those never overlap, so a root's self
    /// time is its duration minus the sum of its children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.layer != JOB) {
            *out.entry(s.layer).or_default() += s.ns();
            *child_ns.entry(s.job).or_default() += s.ns();
        }
        for s in self.spans.iter().filter(|s| s.layer == JOB) {
            let children = child_ns.get(&s.job).copied().unwrap_or(0);
            *out.entry(JOB).or_default() += s.ns().saturating_sub(children);
        }
        out
    }

    /// Number of root spans recorded.
    pub fn jobs(&self) -> usize {
        self.spans.iter().filter(|s| s.layer == JOB).count()
    }

    /// Total duration of the recorded root spans.
    pub fn job_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == JOB)
            .map(Span::ns)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = if s.layer == JOB {
                "null".to_string()
            } else {
                s.job.to_string()
            };
            let _ = writeln!(
                text,
                "{{\"job\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.job, parent, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
