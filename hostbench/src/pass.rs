//! One pass over a workload: every cell through the layers' public calls
//! on the worker threads, then result assembly and emission.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use commtm_lab::json::fnv1a;
use commtm_lab::results::{CellResult, CellStats, ResultSet};
use commtm_lab::spec::{Cell, Scenario};
use commtm_lab::trace::{summarize_trace, trace_to_json};
use commtm_lab::{figures, report, Registry};
use commtm_workloads::BaseCfg;

use crate::spans::{Layer, Spans};
use crate::workloads::Plan;

/// What one pass measured and produced.
pub struct Pass {
    /// Host wall time of the timed phase: cells plus emission.
    pub wall_ns: u64,
    /// Wall time from spawning the workers to joining them.
    pub cells_ns: u64,
    /// Process CPU time over the timed phase, in seconds.
    pub cpu_s: f64,
    /// Per-layer totals over every thread (zero when untraced).
    pub spans: Spans,
    /// Summed time a worker had no cell left while another still ran.
    pub idle_ns: u64,
    /// `fnv1a` over the canonical results JSON of every scenario.
    pub fingerprint: String,
    /// Simulated counts summed over the cells that succeeded.
    pub sim: CellStats,
    /// `Workload::run` nanoseconds per simulated op, one per successful
    /// cell (traced passes only).
    pub cell_ns_per_op: Vec<f64>,
    /// Cells that panicked, violated an invariant or failed their oracle,
    /// with their errors.
    pub failures: Vec<String>,
    /// Bytes of trace side-car JSON built in memory.
    pub trace_json_bytes: u64,
}

/// A worker's share of a pass.
struct Share {
    spans: Spans,
    results: Vec<(usize, CellResult, f64, u64)>,
    finished: Instant,
}

/// Runs every cell of `plan` and emits the results; spans are recorded
/// when `traced`.
pub fn run(plan: &Plan, traced: bool) -> Result<Pass, String> {
    let cpu0 = crate::host::cpu_s()?;
    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let shares: Vec<Share> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan.workers)
            .map(|_| scope.spawn(|| worker(plan, &cursor, traced)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker threads catch cell panics"))
            .collect()
    });
    let cells_ns = started.elapsed().as_nanos() as u64;

    let mut spans = Spans::new(traced);
    let last = shares.iter().map(|s| s.finished).max();
    let mut idle_ns = 0;
    let mut slots: Vec<Option<CellResult>> = plan.cells.iter().map(|_| None).collect();
    let mut cell_ns_per_op = Vec::new();
    let mut trace_json_bytes = 0;
    for share in shares {
        spans.absorb(&share.spans);
        if let Some(last) = last {
            idle_ns += last.duration_since(share.finished).as_nanos() as u64;
        }
        for (idx, result, ns_per_op, bytes) in share.results {
            if traced && result.stats.is_some() {
                cell_ns_per_op.push(ns_per_op);
            }
            trace_json_bytes += bytes;
            slots[idx] = Some(result);
        }
    }
    let results: Vec<CellResult> = slots
        .into_iter()
        .map(|s| s.expect("every cell is claimed exactly once"))
        .collect();
    let mut sim = CellStats::default();
    let mut failures = Vec::new();
    for r in &results {
        match (&r.stats, &r.error) {
            (Some(s), _) => add(&mut sim, s),
            (None, e) => failures.push(format!(
                "{}: {}",
                r.key(),
                e.as_deref().unwrap_or("unknown")
            )),
        }
    }

    let fingerprint = spans.time(Layer::Emit, || emit(plan, results));
    spans.collect_allocs();
    let wall_ns = started.elapsed().as_nanos() as u64;
    let cpu_s = crate::host::cpu_s()? - cpu0;
    Ok(Pass {
        wall_ns,
        cells_ns,
        cpu_s,
        spans,
        idle_ns,
        fingerprint,
        sim,
        cell_ns_per_op,
        failures,
        trace_json_bytes,
    })
}

/// Claims cells in plan order until none are left.
fn worker(plan: &Plan, cursor: &AtomicUsize, traced: bool) -> Share {
    let mut spans = Spans::new(traced);
    let mut results = Vec::new();
    loop {
        let claim = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&idx) = plan.order.get(claim) else {
            break;
        };
        let cell = &plan.cells[idx];
        let scenario = &plan.scenarios[plan.scenario_of[idx]];
        let run_before = spans.ns[Layer::Run as usize];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_cell(&plan.registry, cell, scenario, &mut spans)
        }));
        let (stats, error, trace_bytes) = match outcome {
            Ok(Ok((stats, bytes))) => (Some(stats), None, bytes),
            Ok(Err(e)) => (None, Some(e), 0),
            Err(panic) => (None, Some(panic_message(panic.as_ref())), 0),
        };
        let run_ns = spans.ns[Layer::Run as usize] - run_before;
        let ns_per_op = stats
            .as_ref()
            .map_or(0.0, |s| run_ns as f64 / s.total_ops.max(1) as f64);
        let result = CellResult {
            cell: cell.clone(),
            stats,
            error,
            wall_ms: 0,
            trace: None,
            phases: None,
        };
        results.push((idx, result, ns_per_op, trace_bytes));
    }
    let finished = Instant::now();
    spans.collect_allocs();
    Share {
        spans,
        results,
        finished,
    }
}

/// One cell through the layers, in the order a user's run takes them;
/// returns its statistics and the bytes of its trace side-car JSON.
fn run_cell(
    reg: &Registry,
    cell: &Cell,
    scenario: &Scenario,
    spans: &mut Spans,
) -> Result<(CellStats, u64), String> {
    let (def, params) = spans.time(Layer::Resolve, || {
        let def = reg
            .resolve(&cell.workload)
            .ok_or_else(|| format!("unknown workload {:?}", cell.workload))?;
        reg.resolved_params(cell, scenario.scale)
            .map(|params| (def, params))
    })?;
    let base = BaseCfg::new(cell.threads, cell.scheme)
        .with_seed(cell.seed)
        .with_tuning(scenario.tuning);
    spans.time(Layer::Build, || drop(black_box(base.builder().build())));
    let mut out = spans.time(Layer::Run, || def.run(base, &params));
    spans
        .time(Layer::Invariants, || out.machine.check_invariants())
        .map_err(|e| format!("protocol invariant violated: {e}"))?;
    spans.time(Layer::Oracle, || def.oracle(&base, &params, &mut out));
    let stats = spans.time(Layer::Stats, || CellStats::from_report(&out.report));
    let mut trace_bytes = 0;
    if scenario.tuning.trace == Some(true) {
        trace_bytes = spans.time(Layer::Trace, || {
            let trace = out
                .machine
                .take_trace()
                .ok_or("tracing was on but the machine recorded no trace")?;
            black_box(summarize_trace(&trace));
            Ok::<_, String>(trace_to_json(&trace).compact().len() as u64)
        })?;
    }
    spans.time(Layer::Drop, || drop(out));
    Ok((stats, trace_bytes))
}

/// Assembles one result set per scenario and renders what `run --all`
/// writes, in memory: canonical results JSON, the figure and the text
/// report. Returns the fingerprint of the canonical JSON.
fn emit(plan: &Plan, results: Vec<CellResult>) -> String {
    let mut per_scenario: Vec<Vec<CellResult>> =
        plan.scenarios.iter().map(|_| Vec::new()).collect();
    for (i, r) in results.into_iter().enumerate() {
        per_scenario[plan.scenario_of[i]].push(r);
    }
    let mut canonical = String::new();
    for (scenario, cells) in plan.scenarios.iter().zip(per_scenario) {
        let set = ResultSet {
            scenario: scenario.name.clone(),
            title: scenario.title.clone(),
            scale: scenario.scale,
            cells,
            wall_ms: 0,
            jobs: plan.workers,
            engine: "serial".to_string(),
        };
        canonical.push_str(&set.canonical_json().pretty());
        black_box(figures::render_figure(scenario, &set));
        black_box(report::render(scenario, &set));
    }
    fnv1a(&canonical)
}

/// Adds `s`'s counts into `sum` (the fields the per-layer metrics read).
fn add(sum: &mut CellStats, s: &CellStats) {
    sum.total_cycles += s.total_cycles;
    sum.commits += s.commits;
    sum.aborts += s.aborts;
    sum.nontx_cycles += s.nontx_cycles;
    sum.committed_cycles += s.committed_cycles;
    sum.aborted_cycles += s.aborted_cycles;
    sum.gets += s.gets;
    sum.getx += s.getx;
    sum.getu += s.getu;
    sum.gathers += s.gathers;
    sum.reductions += s.reductions;
    sum.splits += s.splits;
    sum.nacks_sent += s.nacks_sent;
    sum.total_ops += s.total_ops;
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}
