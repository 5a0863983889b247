//! The benchmark's own host-clock spans: one around each call into a
//! layer's public function, kept in memory and written out at the end.
//! Disabled, a span is one branch around the call.

use std::io::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    pub parent: u32,
    /// Job the span belongs to (its index in the workload's job list).
    pub job: u32,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str, job: u32) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, idx: Option<u32>) {
        if let Some(idx) = idx {
            let end = self.now_ns();
            self.spans[idx as usize].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in stack order");
        }
    }

    /// Close every span left open above `depth` — after a caught panic
    /// unwound through them.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let idx = self.open.last().copied();
            self.exit(idx);
        }
    }

    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, job: u32, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name, job);
        let r = f();
        self.exit(s);
        r
    }

    /// Spans recorded so far; a mark for [`Spans::totals_since`].
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed host ns per (span name, job) over the spans recorded
    /// since `mark`.
    pub fn totals_since(&self, mark: usize) -> Vec<(&'static str, u32, u64)> {
        let mut out: Vec<(&'static str, u32, u64)> = Vec::new();
        for s in &self.spans[mark..] {
            let d = s.end_ns - s.start_ns;
            match out.iter_mut().find(|e| e.0 == s.name && e.1 == s.job) {
                Some(e) => e.2 += d,
                None => out.push((s.name, s.job, d)),
            }
        }
        out
    }

    /// Write every span as JSON lines (one object per span).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        w.flush()
    }
}
