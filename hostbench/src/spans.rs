//! Span recording around the calls the benchmark makes into each layer.
//!
//! Spans are flat: no recorded call runs inside another, so a span's self
//! time is its whole duration. Each thread keeps its own [`Spans`]; the
//! benchmark adds them up after the threads join. With recording off, a span
//! is a plain call — that is the untraced run the end-to-end metrics come
//! from.

use std::time::Instant;

use crate::counting;

/// The layer a span is attributed to, named `crate.call`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Registry construction, scenario resolution, cell enumeration and
    /// claim order: the set-up before the first cell.
    Plan,
    /// `Registry::resolve` plus `Registry::resolved_params`.
    Resolve,
    /// The probe that builds (and drops) one bare machine per cell with
    /// `BaseCfg::builder().build()`.
    Build,
    /// `Workload::run`: machine construction plus simulation.
    Run,
    /// `Machine::check_invariants`, called after every run.
    Invariants,
    /// `Workload::oracle`.
    Oracle,
    /// `CellStats::from_report`.
    Stats,
    /// On traced cells: taking the trace, `summarize_trace`, `trace_to_json`
    /// rendered to text, and dropping them.
    Trace,
    /// Dropping the finished machine.
    Drop,
    /// Result-set assembly, canonical JSON and its fingerprint, figures
    /// and the text report.
    Emit,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 10;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Plan,
        Layer::Resolve,
        Layer::Build,
        Layer::Run,
        Layer::Invariants,
        Layer::Oracle,
        Layer::Stats,
        Layer::Trace,
        Layer::Drop,
        Layer::Emit,
    ];

    /// The metric stem, `crate.call`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Plan => "lab.plan",
            Layer::Resolve => "lab.resolve",
            Layer::Build => "sim.build",
            Layer::Run => "workloads.run",
            Layer::Invariants => "protocol.invariants",
            Layer::Oracle => "workloads.oracle",
            Layer::Stats => "lab.stats",
            Layer::Trace => "lab.trace",
            Layer::Drop => "sim.drop",
            Layer::Emit => "lab.emit",
        }
    }
}

/// Per-layer busy time and heap allocations of one thread (or a sum of
/// threads).
#[derive(Clone, Debug, Default)]
pub struct Spans {
    on: bool,
    /// Nanoseconds inside each layer's spans.
    pub ns: [u64; LAYERS],
    /// Allocator calls made inside each layer's spans.
    pub allocs: [u64; LAYERS],
    /// Bytes requested inside each layer's spans.
    pub bytes: [u64; LAYERS],
}

/// Restores the previously open layer even when the spanned call unwinds.
struct Reopen(usize);

impl Drop for Reopen {
    fn drop(&mut self) {
        counting::set_open(self.0);
    }
}

impl Spans {
    /// A recorder; with `on` false, [`Spans::time`] only calls through.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// Runs `f` as a span of `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let reopen = Reopen(counting::set_open(layer as usize));
        let start = Instant::now();
        let out = f();
        self.ns[layer as usize] += start.elapsed().as_nanos() as u64;
        drop(reopen);
        out
    }

    /// Moves the allocations this thread counted since the last call into
    /// the per-layer totals.
    pub fn collect_allocs(&mut self) {
        let (allocs, bytes) = counting::take();
        for i in 0..LAYERS {
            self.allocs[i] += allocs[i];
            self.bytes[i] += bytes[i];
        }
    }

    /// Adds another thread's totals into these.
    pub fn absorb(&mut self, other: &Spans) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.allocs[i] += other.allocs[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    /// Nanoseconds over every layer.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}
