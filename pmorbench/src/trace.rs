//! In-memory span recording for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! of the library: name, start, end, parent span, an operation count and
//! the allocations made meanwhile. Spans stay in memory and are written
//! as JSON lines when the run ends; [`crate::summary`] reads that file
//! back. Nothing here reaches into the library crates: the
//! [`TracedModel`] wrapper is how model evaluations inside an analysis
//! or the engine get their spans.

use crate::alloc;
use pmor::engine::{EvalPoint, EvalWorkspace, TransferModel};
use pmor::transient::{Stimulus, TransientOptions, TransientResult};
use pmor_num::{Complex64, Matrix};
use pmor_serve::json::{parse_json, Json};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Layer name, e.g. `rom.eval`.
    pub name: String,
    /// Start time.
    pub t0: u64,
    /// End time.
    pub t1: u64,
    /// Operations the span covers (evaluations, requests, …).
    pub count: u64,
    /// Allocations made by the process while the span was open.
    pub allocs: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.t1 - self.t0) as f64 * 1e-9
    }
}

/// A named value recorded once per run (a count, a size, a ratio) or
/// accumulated over it (summed by the reader).
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// Metric-style name, e.g. `reduce.lowrank_q`.
    pub name: String,
    /// The value.
    pub value: f64,
}

/// A span file read back: every span and fact of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in the order they closed.
    pub spans: Vec<Span>,
    /// Facts in the order they were recorded.
    pub facts: Vec<Fact>,
}

impl Trace {
    /// Sum of every fact named `name` (0 when there is none).
    pub fn fact_sum(&self, name: &str) -> f64 {
        self.facts
            .iter()
            .filter(|f| f.name == name)
            .fold(0.0, |acc, f| acc + f.value)
    }

    /// The last fact named `name`, if any.
    pub fn fact(&self, name: &str) -> Option<f64> {
        self.facts
            .iter()
            .rev()
            .find(|f| f.name == name)
            .map(|f| f.value)
    }
}

struct Recorder {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    facts: Mutex<Vec<Fact>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        facts: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off. Off, [`enter`] costs one atomic load.
pub fn set_enabled(on: bool) {
    // Relaxed: the flag publishes no other data; a span racing the
    // switch is recorded or not, either way consistently.
    recorder().enabled.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    t0: u64,
    allocs0: u64,
    count: u64,
}

impl Guard {
    /// Sets how many operations the span covers (default 1).
    pub fn set_count(&mut self, count: u64) {
        if let Some(s) = self.open.as_mut() {
            s.count = count;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(s) = self.open.take() else { return };
        let t1 = now_ns();
        let allocs = alloc::allocations() - s.allocs0;
        STACK.with(|st| {
            st.borrow_mut().pop();
        });
        let span = Span {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            t0: s.t0,
            t1,
            count: s.count,
            allocs,
        };
        // A poisoned lock means another span writer panicked; the run is
        // failing already, so this span is dropped rather than panicking
        // inside `drop`.
        if let Ok(mut spans) = recorder().spans.lock() {
            spans.push(span);
        }
    }
}

fn open(name: &'static str, parent: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let r = recorder();
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = parent.unwrap_or_else(current);
    STACK.with(|st| st.borrow_mut().push(id));
    Guard {
        open: Some(OpenSpan {
            id,
            parent,
            name,
            t0: now_ns(),
            allocs0: alloc::allocations(),
            count: 1,
        }),
    }
}

/// Opens a span under the innermost open span of this thread. Spans
/// opened inside it (on this thread) become its children.
pub fn enter(name: &'static str) -> Guard {
    open(name, None)
}

/// Opens a span with an explicit parent, for work that a span open on
/// another thread started. Spans opened inside it on this thread become
/// its children, as with [`enter`].
pub fn enter_under(name: &'static str, parent: u64) -> Guard {
    open(name, Some(parent))
}

/// The innermost open span on this thread, 0 when there is none.
pub fn current() -> u64 {
    STACK.with(|st| st.borrow().last().copied().unwrap_or(0))
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// Runs `f` with recording off and, if recording was on, records the
/// whole call as one childless root span named `name`: the untraced
/// passes of a traced run, against which tracing overhead is measured.
pub fn untraced<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let was = enabled();
    set_enabled(false);
    let (t0, allocs0) = (now_ns(), alloc::allocations());
    let out = f();
    let (t1, allocs) = (now_ns(), alloc::allocations() - allocs0);
    set_enabled(was);
    if was {
        if let Ok(mut spans) = recorder().spans.lock() {
            let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
            spans.push(Span {
                id,
                parent: 0,
                name: name.to_string(),
                t0,
                t1,
                count: 1,
                allocs,
            });
        }
    }
    out
}

/// Records a fact (kept only while recording is on).
pub fn fact(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    if let Ok(mut facts) = recorder().facts.lock() {
        facts.push(Fact {
            name: name.to_string(),
            value,
        });
    }
}

/// Everything recorded so far.
pub fn snapshot() -> Trace {
    let r = recorder();
    Trace {
        spans: r.spans.lock().map(|s| s.clone()).unwrap_or_default(),
        facts: r.facts.lock().map(|f| f.clone()).unwrap_or_default(),
    }
}

/// Writes `trace` as JSON lines: one `{"span": …}` or `{"fact": …}`
/// object per line.
///
/// # Errors
///
/// Any file-system failure.
pub fn write(trace: &Trace, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &trace.spans {
        writeln!(
            out,
            "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"t0\":{},\"t1\":{},\"n\":{},\"allocs\":{}}}",
            s.id, s.parent, s.name, s.t0, s.t1, s.count, s.allocs
        )?;
    }
    for f in &trace.facts {
        writeln!(out, "{{\"fact\":\"{}\",\"value\":{:?}}}", f.name, f.value)?;
    }
    out.flush()
}

/// Reads a span file written by [`write`].
///
/// # Errors
///
/// Unreadable files and malformed lines, with the line number.
pub fn read(path: &Path) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut trace = Trace::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let doc = parse_json(line).map_err(|e| bad(&e))?;
        let num = |key: &str| match doc.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(bad(&format!("missing number {key:?}"))),
        };
        let text = |key: &str| match doc.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(bad(&format!("missing string {key:?}"))),
        };
        if doc.get("span").is_some() {
            trace.spans.push(Span {
                id: num("span")? as u64,
                parent: num("parent")? as u64,
                name: text("name")?,
                t0: num("t0")? as u64,
                t1: num("t1")? as u64,
                count: num("n")? as u64,
                allocs: num("allocs")? as u64,
            });
        } else if doc.get("fact").is_some() {
            trace.facts.push(Fact {
                name: text("fact")?,
                value: num("value")?,
            });
        } else {
            return Err(bad("neither a span nor a fact"));
        }
    }
    Ok(trace)
}

/// A [`TransferModel`] that records a span named `layer` around every
/// call into the wrapped model. It forwards **every** trait method,
/// `eval_batch` included, so a model that overrides a default method is
/// traced on the path it really takes. A batch span counts its points.
pub struct TracedModel<'a> {
    inner: &'a dyn TransferModel,
    layer: &'static str,
}

impl<'a> TracedModel<'a> {
    /// Wraps `inner`, naming its spans `layer` (`full.eval`, `rom.eval`).
    pub fn new(inner: &'a dyn TransferModel, layer: &'static str) -> Self {
        TracedModel { inner, layer }
    }
}

impl TransferModel for TracedModel<'_> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn transfer(&self, p: &[f64], s: Complex64) -> pmor::Result<Matrix<Complex64>> {
        span(self.layer, || self.inner.transfer(p, s))
    }

    fn dominant_poles(&self, p: &[f64], count: usize) -> pmor::Result<Vec<Complex64>> {
        span(self.layer, || self.inner.dominant_poles(p, count))
    }

    fn transfer_with(
        &self,
        p: &[f64],
        s: Complex64,
        ws: &mut EvalWorkspace,
    ) -> pmor::Result<Matrix<Complex64>> {
        span(self.layer, || self.inner.transfer_with(p, s, ws))
    }

    fn transient(
        &self,
        p: &[f64],
        stimuli: &[Stimulus],
        opts: &TransientOptions,
        ws: &mut EvalWorkspace,
    ) -> pmor::Result<TransientResult> {
        span(self.layer, || self.inner.transient(p, stimuli, opts, ws))
    }

    fn eval_batch(
        &self,
        points: &[EvalPoint],
        ws: &mut EvalWorkspace,
    ) -> pmor::Result<Vec<Matrix<Complex64>>> {
        let mut g = enter(self.layer);
        g.set_count(points.len() as u64);
        self.inner.eval_batch(points, ws)
    }
}
