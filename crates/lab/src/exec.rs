//! The parallel sweep executor.
//!
//! Cells of a scenario are independent simulations, so the executor fans
//! them out across host threads: a shared atomic cursor hands each worker
//! the next unclaimed cell, and results land in their cell's slot, so the
//! output order — and, because each `sim::Machine` is deterministic given
//! its seed, every number in it — is identical no matter how many workers
//! run or how the OS schedules them. The determinism tests assert this by
//! comparing parallel and serial runs byte-for-byte. The batch runner
//! ([`crate::batch`]) fans its cells out on the same pool.
//!
//! Cells are *claimed* longest-first (see [`schedule_order`]): a sweep
//! mixing 128-thread full-scale cells with tiny 1-thread cells would
//! otherwise risk starting its largest cell last and stretching the
//! makespan by nearly that cell's whole runtime. Claim order only affects
//! wall-clock time, never results — slots keep the scenario's cell order.
//!
//! A cell that panics (a workload oracle failure or a `SimError` unwrap)
//! is caught and recorded as that cell's error; the rest of the sweep
//! continues.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

use crate::registry;
use crate::results::{CellResult, CellStats, ResultSet};
use crate::spec::{self, scheme_name, Scenario};
use crate::trace::{summarize_trace, CellTrace};

/// Executor options.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Suppress per-cell progress lines on stderr.
    pub quiet: bool,
    /// Stop claiming new cells after the first failure (in-flight cells
    /// finish). Off by default: a poisoned cell is recorded and the rest
    /// of the sweep continues — in batch mode its snapshot records the
    /// failure and the figure renders a gap. Unclaimed cells are
    /// recorded as skipped, never as failed.
    pub fail_fast: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: 0,
            quiet: true,
            fail_fast: false,
        }
    }
}

impl ExecOptions {
    /// The effective worker count for `cells` cells.
    pub fn effective_jobs(&self, cells: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let jobs = if self.jobs == 0 { auto } else { self.jobs };
        jobs.clamp(1, cells.max(1))
    }
}

/// The estimated relative cost of one cell: simulated threads × the mean
/// of its resolved numeric workload parameters (a deterministic proxy for
/// workload size — operation counts dominate the parameter set, and more
/// cores mean more scheduler steps per operation). Booleans count as 0/1
/// (they were integer switches before parameters were typed, keeping the
/// schedule order stable); strings name variants, not sizes, and are
/// excluded.
pub fn estimated_cost(cell: &spec::Cell, scale: u64) -> u64 {
    estimated_cost_in(registry::global(), cell, scale)
}

/// Like [`estimated_cost`], resolving the workload's schema in an
/// explicit registry (so custom workloads are costed by *their* schema,
/// not the global one's — or a fallback of 1).
pub fn estimated_cost_in(reg: &registry::Registry, cell: &spec::Cell, scale: u64) -> u64 {
    let size = reg
        .resolved_params(cell, scale)
        .map(|params| {
            let (sum, count) = params.iter().fold((0u64, 0u64), |(s, n), (_, v)| match v {
                spec::ParamValue::U64(x) => (s.saturating_add(*x), n + 1),
                spec::ParamValue::F64(x) => (s.saturating_add(*x as u64), n + 1),
                spec::ParamValue::Bool(b) => (s.saturating_add(u64::from(*b)), n + 1),
                spec::ParamValue::Str(_) => (s, n),
            });
            sum.checked_div(count).unwrap_or(1)
        })
        .unwrap_or(1);
    (cell.threads as u64).saturating_mul(size.max(1))
}

/// The order in which workers claim cells: descending [`estimated_cost`],
/// ties broken by cell index (so the order — like everything else in the
/// executor — is deterministic). Longest-first claiming is the classic
/// LPT heuristic: it keeps one huge cell from being picked up last and
/// dominating the sweep makespan.
pub fn schedule_order(cells: &[spec::Cell], scale: u64) -> Vec<usize> {
    schedule_order_in(registry::global(), cells, scale)
}

/// Like [`schedule_order`], costing cells against an explicit registry.
pub fn schedule_order_in(reg: &registry::Registry, cells: &[spec::Cell], scale: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let costs: Vec<u64> = cells
        .iter()
        .map(|c| estimated_cost_in(reg, c, scale))
        .collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    order
}

/// Runs every cell of `scenario` and collects the results, resolving
/// workloads in the global registry.
///
/// # Errors
///
/// Fails fast if the scenario does not validate; individual cell failures
/// are recorded in the result set instead.
pub fn run_scenario(scenario: &Scenario, opts: &ExecOptions) -> Result<ResultSet, String> {
    run_scenario_in(registry::global(), scenario, opts)
}

/// Like [`run_scenario`], against an explicit [`registry::Registry`] —
/// the entry point for drivers that registered their own workloads.
///
/// # Errors
///
/// See [`run_scenario`].
pub fn run_scenario_in(
    reg: &registry::Registry,
    scenario: &Scenario,
    opts: &ExecOptions,
) -> Result<ResultSet, String> {
    scenario.validate_in(reg)?;
    let cells = scenario.cells();
    let started = Instant::now();
    let order = schedule_order_in(reg, &cells, scenario.scale);
    let ran = run_pool(cells.len(), &order, opts, |idx| {
        Ok(run_cell(reg, &cells[idx], scenario))
    })?;
    // Cells left unclaimed by a --fail-fast stop are recorded as skipped
    // (the shape of the result set never changes), never as failed: a
    // batch run must not snapshot them as failed either.
    let results: Vec<CellResult> = ran
        .into_iter()
        .zip(&cells)
        .map(|(result, cell)| result.unwrap_or_else(|| skipped_cell(cell)))
        .collect();

    Ok(ResultSet {
        scenario: scenario.name.clone(),
        title: scenario.title.clone(),
        scale: scenario.scale,
        cells: results,
        wall_ms: started.elapsed().as_millis() as u64,
        jobs: opts.effective_jobs(cells.len()),
        engine: SERIAL_ENGINE.to_string(),
    })
}

/// The engine label recorded in result files and the `run --all`
/// manifest. The machine has one scheduler, so it is always `"serial"`.
pub const SERIAL_ENGINE: &str = "serial";

/// The error string recorded for cells a `--fail-fast` stop never ran.
/// Distinguishable from real failures: the batch layer writes no snapshot
/// for these cells, so a later `--resume` runs them.
pub const SKIPPED_FAIL_FAST: &str =
    "skipped: --fail-fast stopped the sweep after an earlier failure";

/// The placeholder result for a cell a `--fail-fast` stop never ran.
pub(crate) fn skipped_cell(cell: &spec::Cell) -> CellResult {
    CellResult {
        cell: cell.clone(),
        stats: None,
        error: Some(SKIPPED_FAIL_FAST.to_string()),
        wall_ms: 0,
        trace: None,
        phases: None,
    }
}

/// The one worker pool every lab sweep runs on. `opts.effective_jobs`
/// workers claim the indices of `order` through a shared cursor and run
/// `step` on each; the result lands in slot `order[k]` of the returned
/// `slots`-long vector. Slots no worker claimed stay `None`: indices
/// absent from `order`, and those left unclaimed after a failed cell
/// (no stats) under `opts.fail_fast`.
///
/// A step's `Err` is a failure of the run itself, not of one cell (the
/// batch runner's snapshot I/O): it stops every worker and is returned.
/// Cell panics never reach here; [`run_cell`] catches them.
pub(crate) fn run_pool<F>(
    slots: usize,
    order: &[usize],
    opts: &ExecOptions,
    step: F,
) -> Result<Vec<Option<CellResult>>, String>
where
    F: Fn(usize) -> Result<CellResult, String> + Sync,
{
    install_quiet_cell_hook();
    let total = order.len();
    let results: Vec<Mutex<Option<CellResult>>> = (0..slots).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let error: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..opts.effective_jobs(total) {
            scope.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let claim = cursor.fetch_add(1, Ordering::Relaxed);
                if claim >= total {
                    return;
                }
                let idx = order[claim];
                match step(idx) {
                    Ok(result) => {
                        if opts.fail_fast && result.stats.is_none() {
                            stop.store(true, Ordering::Relaxed);
                        }
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if !opts.quiet {
                            progress_line(&result, finished, total);
                        }
                        *results[idx].lock().expect("slot lock") = Some(result);
                    }
                    Err(e) => {
                        error.lock().expect("error lock").get_or_insert(e);
                        stop.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            });
        }
    });

    match error.into_inner().expect("error lock") {
        Some(e) => Err(e),
        None => Ok(results
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot lock"))
            .collect()),
    }
}

/// Runs every cell serially on the calling thread (reference mode for
/// determinism checks; also useful under debuggers).
pub fn run_scenario_serial(scenario: &Scenario) -> Result<ResultSet, String> {
    run_scenario(
        scenario,
        &ExecOptions {
            jobs: 1,
            ..ExecOptions::default()
        },
    )
}

thread_local! {
    /// Whether this thread is inside a caught cell execution (its panics
    /// are captured into the cell's error and should not also hit stderr).
    static IN_CELL: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// panics already captured by [`run_cell`] and delegates everything else
/// to the previously-installed hook.
fn install_quiet_cell_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_CELL.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs one grid cell of `scenario` on the calling thread: resolve in
/// `reg`, simulate, check the oracle, catch panics into the cell's error,
/// and summarize the trace of a traced cell.
/// This is the unit of work both the sweep executor above and the batch
/// runner ([`crate::batch`]) fan out on one worker pool; the results are
/// identical because they are the same code path.
pub fn run_cell(reg: &registry::Registry, cell: &spec::Cell, scenario: &Scenario) -> CellResult {
    let started = Instant::now();
    let traced = scenario.tuning.trace == Some(true);
    IN_CELL.with(|f| f.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            reg.run_cell_traced(cell, scenario.scale, scenario.tuning)
        } else {
            reg.run_cell(cell, scenario.scale, scenario.tuning)
                .map(|report| (report, None))
        }
    }));
    IN_CELL.with(|f| f.set(false));
    let (stats, error, trace) = match outcome {
        Ok(Ok((report, trace))) => (Some(CellStats::from_report(&report)), None, trace),
        Ok(Err(e)) => (None, Some(e), None),
        Err(panic) => (None, Some(panic_message(panic.as_ref())), None),
    };
    // The one summary of this trace: every artifact reads it from here.
    let trace = trace.map(|trace| CellTrace {
        summary: summarize_trace(&trace),
        trace,
    });
    CellResult {
        cell: cell.clone(),
        stats,
        error,
        wall_ms: started.elapsed().as_millis() as u64,
        trace,
        phases: None,
    }
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

fn progress_line(result: &CellResult, finished: usize, total: usize) {
    let cell = &result.cell;
    let outcome = match (&result.stats, &result.error) {
        (Some(s), _) => format!("{} cycles", s.total_cycles),
        (None, Some(e)) => format!("FAILED: {}", e.lines().next().unwrap_or("?")),
        (None, None) => "FAILED".to_string(),
    };
    eprintln!(
        "[{finished}/{total}] {} t={} {} seed={:#x}: {} ({} ms)",
        cell.label,
        cell.threads,
        scheme_name(cell.scheme),
        cell.seed,
        outcome,
        result.wall_ms,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn small_scenario() -> Scenario {
        Scenario::new("exec-test", "executor test")
            .workload(WorkloadSpec::named("counter").param("total_incs", 120))
            .workload(WorkloadSpec::named("oput").param("total_puts", 80))
            .threads(&[1, 2, 4])
            .seeds(&[11, 12])
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let scn = small_scenario();
        let serial = run_scenario_serial(&scn).unwrap();
        let parallel = run_scenario(
            &scn,
            &ExecOptions {
                jobs: 8,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert!(serial.all_ok());
        assert_eq!(
            serial.canonical_json().pretty(),
            parallel.canonical_json().pretty(),
            "parallel execution must not change any deterministic statistic"
        );
    }

    #[test]
    fn failed_cells_are_recorded_not_fatal() {
        // threads > 128 is rejected by validation; an in-run failure needs
        // a panicking workload: counter with an impossible oracle can't be
        // forced, so use the cycle-limit tuning to make the run fail.
        let mut scn = Scenario::new("fail-test", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 5_000))
            .threads(&[2])
            .schemes(&[commtm::Scheme::Baseline])
            .seeds(&[1]);
        scn.tuning.max_cycles = Some(10);
        let set = run_scenario_serial(&scn).unwrap();
        assert_eq!(set.cells.len(), 1);
        assert!(!set.all_ok());
        let err = set.cells[0].error.as_ref().unwrap();
        assert!(
            err.contains("CycleLimit"),
            "error should mention the cycle limit: {err}"
        );
    }

    #[test]
    fn fail_fast_records_unclaimed_cells_as_skipped() {
        // Both cells trip the cycle limit; one worker runs the first
        // claimed cell, fails, and must never claim the second.
        let mut scn = Scenario::new("fail-fast", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 5_000))
            .threads(&[2, 4])
            .schemes(&[commtm::Scheme::Baseline])
            .seeds(&[1]);
        scn.tuning.max_cycles = Some(10);
        let opts = ExecOptions {
            jobs: 1,
            fail_fast: true,
            ..ExecOptions::default()
        };
        let set = run_scenario(&scn, &opts).unwrap();
        assert_eq!(set.cells.len(), 2, "the result set keeps its shape");
        let first = schedule_order(&scn.cells(), scn.scale)[0];
        for (i, cell) in set.cells.iter().enumerate() {
            let err = cell.error.as_deref().unwrap();
            if i == first {
                assert!(err.contains("CycleLimit"), "{err}");
            } else {
                assert_eq!(err, SKIPPED_FAIL_FAST);
                assert_eq!(cell.wall_ms, 0);
            }
        }
    }

    #[test]
    fn a_failing_step_stops_the_pool_and_is_returned() {
        let cells = small_scenario().cells();
        let calls = AtomicUsize::new(0);
        let order: Vec<usize> = (0..cells.len()).collect();
        let opts = ExecOptions {
            jobs: 1,
            ..ExecOptions::default()
        };
        let outcome = run_pool(cells.len(), &order, &opts, |idx| {
            if calls.fetch_add(1, Ordering::Relaxed) == 1 {
                return Err("snapshot write failed".to_string());
            }
            Ok(skipped_cell(&cells[idx]))
        });
        assert_eq!(outcome.unwrap_err(), "snapshot write failed");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            2,
            "no cell is claimed after a step fails"
        );

        // Without a failing step every index in the order is run, and
        // slots outside the order stay empty.
        let ran = run_pool(cells.len(), &order[1..], &opts, |idx| {
            Ok(skipped_cell(&cells[idx]))
        })
        .unwrap();
        assert!(ran[0].is_none());
        assert!(ran[1..].iter().all(Option::is_some));
    }

    #[test]
    fn cells_are_claimed_longest_first() {
        // One huge 4-thread cell among tiny 1/2-thread cells: the huge
        // cell must be claimed first, and the order must be a permutation.
        let scn = Scenario::new("sched", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 50))
            .workload(
                WorkloadSpec::named("oput")
                    .label("huge")
                    .param("total_puts", 1_000_000),
            )
            .threads(&[1, 2, 4])
            .seeds(&[1]);
        let cells = scn.cells();
        let order = schedule_order(&cells, scn.scale);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cells.len()).collect::<Vec<_>>());
        let first = &cells[order[0]];
        assert_eq!((first.label.as_str(), first.threads), ("huge", 4));
        // Costs along the claim order never increase.
        let costs: Vec<u64> = order
            .iter()
            .map(|&i| estimated_cost(&cells[i], scn.scale))
            .collect();
        assert!(costs.windows(2).all(|w| w[0] >= w[1]), "{costs:?}");
        // Equal-cost cells keep their scenario order (determinism).
        assert_eq!(schedule_order(&cells, scn.scale), order);
        // Threads scale the estimate for the same workload size.
        assert_eq!((cells[4].label.as_str(), cells[4].threads), ("counter", 4));
        assert!(
            estimated_cost(&cells[4], 1) > estimated_cost(&cells[0], 1),
            "4-thread cell costs more than its 1-thread sibling"
        );
    }

    #[test]
    fn jobs_are_clamped_to_cells() {
        let opts = ExecOptions {
            jobs: 64,
            ..ExecOptions::default()
        };
        assert_eq!(opts.effective_jobs(3), 3);
        assert_eq!(
            ExecOptions {
                jobs: 2,
                ..ExecOptions::default()
            }
            .effective_jobs(100),
            2
        );
        assert!(
            ExecOptions {
                jobs: 0,
                ..ExecOptions::default()
            }
            .effective_jobs(100)
                >= 1
        );
    }
}
