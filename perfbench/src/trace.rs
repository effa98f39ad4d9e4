//! In-memory span recorder and the bench-owned world observer.
//!
//! Spans come only from the benchmark's own code, around its calls into
//! the program: `setup`, each `interval` (`World::run_until`), each
//! `sample` (`World::sample_now`), each observer callback (a child of the
//! interval it fired in) and each layer-tier call. They are kept in memory
//! and written out once, when the run ends.

use std::cell::RefCell;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use byzclock_core::RoundSummary;
use byzclock_runtime::{Observer, WorldSample};
use byzclock_sim::{ProcId, RealTime};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub name: &'static str,
    /// The span that caused it (`None` for a root).
    pub parent: Option<SpanId>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// The open span new observer callbacks attach to.
    current: Option<SpanId>,
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            current: None,
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Sets the span observer callbacks attach to.
    pub fn set_current(&mut self, id: Option<SpanId>) {
        self.current = id;
    }

    /// All spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as CSV (`id,parent,name,start_ns,end_ns`).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(out, "{id},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }

    /// Per parent span, the summed duration of its children named `child`.
    pub fn child_ns(&self, child: &str) -> Vec<u64> {
        let mut sums = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.name == child) {
            if let Some(p) = s.parent {
                sums[p] += s.duration_ns();
            }
        }
        sums
    }
}

/// Shared handle: the world owns the observer, the benchmark keeps the
/// tracer.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Counts the bench observer collects from the world's callbacks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Completed rounds (`on_round`).
    pub rounds: u64,
    /// Σ responders over rounds.
    pub responders: u64,
    /// Σ timeouts over rounds.
    pub timeouts: u64,
    /// Clock adjustments (`on_adjustment`).
    pub adjustments: u64,
    /// Corruptions, releases and restarts.
    pub transitions: u64,
    /// Periodic world samples (`on_sample`).
    pub samples: u64,
}

/// A world observer that counts callbacks and records one
/// `observer` span per callback under the tracer's current span.
pub struct BenchObserver {
    tracer: SharedTracer,
    counts: Rc<RefCell<Counts>>,
}

impl BenchObserver {
    /// An observer writing to `tracer` and `counts`.
    pub fn new(tracer: SharedTracer, counts: Rc<RefCell<Counts>>) -> Self {
        BenchObserver { tracer, counts }
    }

    fn traced(&mut self, update: impl FnOnce(&mut Counts)) {
        let start = self.tracer.borrow().now_ns();
        update(&mut self.counts.borrow_mut());
        let mut tracer = self.tracer.borrow_mut();
        let end = tracer.now_ns();
        let parent = tracer.current;
        tracer.record("observer", parent, start, end);
    }
}

impl Observer for BenchObserver {
    fn on_sample(&mut self, _sample: &WorldSample) {
        self.traced(|c| c.samples += 1);
    }

    fn on_adjustment(&mut self, _node: ProcId, _delta: f64, _tau: RealTime, _good: bool) {
        self.traced(|c| c.adjustments += 1);
    }

    fn on_corrupt(&mut self, _node: ProcId, _tau: RealTime) {
        self.traced(|c| c.transitions += 1);
    }

    fn on_release(&mut self, _node: ProcId, _tau: RealTime) {
        self.traced(|c| c.transitions += 1);
    }

    fn on_restart(&mut self, _node: ProcId, _tau: RealTime) {
        self.traced(|c| c.transitions += 1);
    }

    fn on_round(&mut self, _node: ProcId, summary: &RoundSummary, _tau: RealTime) {
        self.traced(|c| {
            c.rounds += 1;
            c.responders += summary.responders as u64;
            c.timeouts += summary.timeouts as u64;
        });
    }
}
