//! The benchmark's own spans. Nothing inside the program is
//! instrumented: spans wrap the calls the benchmark makes into a layer,
//! and the leaves are the program's existing `DispatchEvent`s, stamped
//! by a `TraceSink` of the benchmark's own so they carry real times.
//!
//! Spans stay in memory and are written out once, after the run.

use rpu::{DispatchEvent, KernelKey, TraceSink};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One closed interval on the run's clock (ns since [`Recorder::new`]).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, `u32::MAX` for a root.
    pub parent: u32,
}

/// Stack-shaped span recorder for the thread that drives a workload.
/// Disabled (the untraced runs), `open`/`close` cost one branch.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(t0: Instant, enabled: bool) -> Self {
        Recorder {
            t0,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The instant the run's clock counts from.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.stack.push(self.spans.len() as u32);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
    }

    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let id = self.stack.pop().expect("close without open");
        self.spans[id as usize].end = end;
    }

    /// A span recorded after the fact (serve jobs, timed by the
    /// generator threads), as a child of the innermost open span.
    pub fn closed(&mut self, name: &'static str, start: u64, end: u64) {
        if self.enabled {
            let parent = self.stack.last().copied().unwrap_or(u32::MAX);
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
            });
        }
    }
}

/// `span!(rec, "upload", session.upload(&a))` — the call, wrapped.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:literal, $call:expr) => {{
        $rec.open($name);
        let out = $call;
        $rec.close();
        out
    }};
}

/// One dispatch as the program reported it, plus when it ended.
#[derive(Debug, Clone, Copy)]
pub struct Leaf {
    pub end: u64,
    pub wall_ns: u64,
    pub cycles: u64,
    pub lane: u16,
    /// Index into [`StampSink::kernels`].
    pub kernel: u16,
    /// Serve tenant tag, `u32::MAX` for untagged work.
    pub tenant: u32,
}

impl Leaf {
    pub fn start(&self) -> u64 {
        self.end.saturating_sub(self.wall_ns)
    }
}

#[derive(Debug, Default)]
struct SinkState {
    leaves: Vec<Leaf>,
    kernel_ids: HashMap<KernelKey, u16>,
    kernels: Vec<KernelKey>,
}

/// A [`TraceSink`] that keeps every event in compact form with the time
/// it was recorded. Lane worker threads record concurrently.
#[derive(Debug)]
pub struct StampSink {
    t0: Instant,
    state: Mutex<SinkState>,
}

impl StampSink {
    pub fn new(t0: Instant) -> Self {
        StampSink {
            t0,
            state: Mutex::default(),
        }
    }

    /// Every leaf recorded so far, in record order.
    pub fn leaves(&self) -> Vec<Leaf> {
        self.state.lock().expect("sink lock").leaves.clone()
    }

    /// Distinct kernels dispatched, indexed by [`Leaf::kernel`].
    pub fn kernels(&self) -> Vec<KernelKey> {
        self.state.lock().expect("sink lock").kernels.clone()
    }
}

impl TraceSink for StampSink {
    fn record(&self, event: DispatchEvent) {
        let end = self.t0.elapsed().as_nanos() as u64;
        let mut st = self.state.lock().expect("sink lock");
        let next = st.kernels.len() as u16;
        let kernel = *st.kernel_ids.entry(event.key).or_insert(next);
        if kernel == next {
            st.kernels.push(event.key);
        }
        st.leaves.push(Leaf {
            end,
            wall_ns: event.wall_ns,
            cycles: event.cycles,
            lane: event.lane as u16,
            kernel,
            tenant: event.tenant.unwrap_or(u32::MAX),
        });
    }
}

/// Length of `[lo, hi)` covered by the union of `intervals`, which must
/// be sorted by start.
pub fn covered(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes spans and leaves as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). The driver thread is tid 0, lane `l` is tid `l + 1`; every
/// span carries the index of the span that caused it. Only events that
/// start before `until_ns` are written, to keep the file loadable.
pub fn write_chrome_trace(
    path: &std::path::Path,
    workload: &str,
    spans: &[Span],
    leaves: &[Leaf],
    kernels: &[KernelKey],
    until_ns: u64,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let us = |ns: u64| ns as f64 / 1e3;
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    write!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{workload}\"}}}}"
    )?;
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.start < until_ns) {
        write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{}}}}}",
            s.name,
            us(s.start),
            us(s.end - s.start),
            if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            },
        )?;
    }
    for l in leaves.iter().filter(|l| l.start() < until_ns) {
        let key = &kernels[l.kernel as usize];
        write!(
            out,
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"dispatch:{}\",\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"cycles\":{},\"n\":{},\"tenant\":{}}}}}",
            l.lane + 1,
            key.op,
            us(l.start()),
            us(l.wall_ns),
            l.cycles,
            key.n,
            if l.tenant == u32::MAX { -1 } else { i64::from(l.tenant) },
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_is_the_union_clipped_to_the_window() {
        let iv = [(0u64, 10u64), (5, 20), (30, 40), (35, 100)];
        assert_eq!(covered(iv.into_iter(), 0, 50), 20 + 20);
        assert_eq!(covered(iv.into_iter(), 8, 32), 12 + 2);
        assert_eq!(covered(std::iter::empty(), 0, 9), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        let v = span!(rec, "x", 7);
        assert_eq!(v, 7);
        assert!(rec.spans.is_empty());
    }
}
