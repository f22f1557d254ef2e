//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around its
//! calls into each layer's public functions, and by the plug-in timing
//! wrappers the traced run installs around device plug-ins. Everything
//! runs on the benchmark's thread, so the recorder is thread-local and
//! spans nest strictly: a span's parent is the innermost span still open
//! when it started. When tracing is off, [`span`] is one thread-local
//! flag read around the call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use uniint_core::plugin::{
    DeviceEvent, DeviceFrame, InputContext, InputPlugin, OutputCaps, OutputPlugin,
};
use uniint_protocol::input::InputEvent;
use uniint_raster::framebuffer::Framebuffer;

/// Marks "no parent" in [`Span::parent`].
const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `multi.pump_all`.
    pub name: &'static str,
    /// Start, nanoseconds since the last `clear`.
    pub start_ns: u64,
    /// End, nanoseconds since the last `clear`.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// The interaction this span belongs to.
    pub interaction: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    interaction: u32,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        interaction: 0,
    });
}

/// Drops every recorded span and restarts the clock.
pub fn clear() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.origin = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
}

/// Starts (or resumes) recording.
pub fn resume() {
    ON.with(|f| f.set(true));
}

/// Stops recording; the spans stay until [`take`] or [`clear`].
pub fn stop() {
    ON.with(|f| f.set(false));
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Tags the spans that follow with interaction `id`.
pub fn set_interaction(id: u32) {
    REC.with(|r| r.borrow_mut().interaction = id);
}

/// Opens a span; `None` when tracing is off.
pub fn begin(name: &'static str) -> Option<u32> {
    if !enabled() {
        return None;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let interaction = r.interaction;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            interaction,
        });
        r.open.push(idx);
        Some(idx)
    })
}

/// Closes the span `begin` opened. With `keep == false` the span is
/// discarded (it must be the last one recorded and have no children),
/// for calls that only count when they turn out to have done work.
pub fn end(token: Option<u32>, keep: bool) {
    let Some(idx) = token else { return };
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let top = r.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        if keep {
            let now = r.origin.elapsed().as_nanos() as u64;
            r.spans[idx as usize].end_ns = now;
        } else if r.spans.len() as u32 == idx + 1 {
            r.spans.pop();
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let token = begin(name);
    let out = f();
    end(token, true);
    out
}

/// Takes every span recorded so far, leaving recording state as is.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by child spans).
    pub self_ns: u64,
}

/// Sums duration and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child);
    }
    out
}

/// Writes spans as tab-separated lines (name, start, end, parent,
/// interaction; parent `-` for roots).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent\tinteraction")?;
    for s in spans {
        if s.parent == ROOT {
            writeln!(
                w,
                "{}\t{}\t{}\t-\t{}",
                s.name, s.start_ns, s.end_ns, s.interaction
            )?;
        } else {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.parent, s.interaction
            )?;
        }
    }
    w.flush()
}

/// Times every `translate` call of the wrapped input plug-in as a span.
#[derive(Debug)]
pub struct TimedInput {
    name: &'static str,
    inner: Box<dyn InputPlugin>,
}

impl TimedInput {
    /// Wraps `inner`, recording its calls as `name`.
    pub fn boxed(name: &'static str, inner: Box<dyn InputPlugin>) -> Box<dyn InputPlugin> {
        Box::new(TimedInput { name, inner })
    }
}

impl InputPlugin for TimedInput {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn translate(&mut self, ev: &DeviceEvent, ctx: &InputContext) -> Vec<InputEvent> {
        let inner = &mut self.inner;
        span(self.name, || inner.translate(ev, ctx))
    }
}

/// Times every `adapt` call of the wrapped output plug-in as a span.
#[derive(Debug)]
pub struct TimedOutput {
    name: &'static str,
    inner: Box<dyn OutputPlugin>,
}

impl TimedOutput {
    /// Wraps `inner`, recording its calls as `name`.
    pub fn boxed(name: &'static str, inner: Box<dyn OutputPlugin>) -> Box<dyn OutputPlugin> {
        Box::new(TimedOutput { name, inner })
    }
}

impl OutputPlugin for TimedOutput {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn caps(&self) -> OutputCaps {
        self.inner.caps()
    }

    fn adapt(&mut self, server_frame: &Framebuffer) -> DeviceFrame {
        let inner = &mut self.inner;
        span(self.name, || inner.adapt(server_frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        clear();
        resume();
        set_interaction(7);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = begin("dropped");
        end(t, false);
        stop();
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.interaction == 7));
        let tot = totals(&spans);
        let outer = tot["outer"];
        let inner = tot["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_records_nothing() {
        stop();
        assert_eq!(span("x", || 5), 5);
        assert!(take().is_empty());
    }
}
