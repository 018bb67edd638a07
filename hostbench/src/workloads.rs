//! The four pinned benchmark workloads and their set-up.
//!
//! Every workload runs both schemes, so the protocol layer is used two
//! ways on each: U-state labeled updates, reductions and gathers under
//! CommTM, plain GETX conflicts and aborts under the baseline. Why each
//! workload exists is recorded in `README.md` beside this file.

use commtm_lab::exec::schedule_order_in;
use commtm_lab::spec::{Cell, Scenario, WorkloadSpec};
use commtm_lab::{scenarios, Registry};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["paper-figures", "apps-long", "wide-128", "traced-apps"];

/// The paper's five applications.
const APPS: [&str; 5] = ["boruvka", "kmeans", "ssca2", "genome", "vacation"];

/// Operations per `bank` cell on `apps-long`, pinned rather than scaled.
const BANK_OPS: u64 = 40_000;

/// Everything set-up produces: the registry, the scenarios with their
/// cells flattened scenario-major, and the order workers claim them in.
pub struct Plan {
    /// The registry every cell resolves in.
    pub registry: Registry,
    /// The workload's scenarios, all at one scale.
    pub scenarios: Vec<Scenario>,
    /// Every cell of every scenario, scenario-major.
    pub cells: Vec<Cell>,
    /// For each entry of `cells`, the index of its scenario.
    pub scenario_of: Vec<usize>,
    /// Claim order over `cells`, longest first.
    pub order: Vec<usize>,
    /// Worker threads that run the cells.
    pub workers: usize,
}

/// Set-up for workload `name` with every cell at machine seed `seed`:
/// registry construction, scenario resolution and validation, cell
/// enumeration and claim order.
///
/// # Errors
///
/// Fails on an unknown workload name or a scenario that does not validate.
pub fn plan(name: &str, seed: u64) -> Result<Plan, String> {
    let registry = Registry::with_builtins();
    let (mut scenarios, workers) = scenarios_of(name)?;
    let mut cells = Vec::new();
    let mut scenario_of = Vec::new();
    for (i, scenario) in scenarios.iter_mut().enumerate() {
        scenario.seeds = vec![seed];
        scenario.validate_in(&registry)?;
        let own = scenario.cells();
        scenario_of.extend(std::iter::repeat_n(i, own.len()));
        cells.extend(own);
    }
    // A workload's scenarios share one scale, so one claim order covers all
    // of them, as it would one scenario.
    let order = schedule_order_in(&registry, &cells, scenarios[0].scale);
    Ok(Plan {
        registry,
        scenarios,
        cells,
        scenario_of,
        order,
        workers,
    })
}

/// The scenarios of workload `name` (seeds not yet set) and its worker
/// count.
fn scenarios_of(name: &str) -> Result<(Vec<Scenario>, usize), String> {
    let apps = |scn: Scenario| {
        APPS.iter()
            .fold(scn, |s, a| s.workload(WorkloadSpec::named(a)))
    };
    Ok(match name {
        // The user's "regenerate the paper" command: every figure scenario
        // on its full 1-128-thread grid at scale 1, on two workers.
        "paper-figures" => (
            scenarios::builtin_names()
                .into_iter()
                .filter(|n| *n != "smoke")
                .map(|n| {
                    scenarios::builtin(n)
                        .expect("builtin_names lists only builtins")
                        .scale(1)
                })
                .collect(),
            2,
        ),
        // Long cells: nearly all host time in the per-op simulator path.
        "apps-long" => {
            let bank = |mix: &str| {
                WorkloadSpec::named("bank")
                    .label(&format!("bank {mix}"))
                    .param("total_ops", BANK_OPS)
                    .param("mix", mix)
            };
            let scn = apps(Scenario::new("apps-long", "applications, long cells"))
                .workload(bank("transfer-heavy"))
                .workload(bank("audit-heavy"))
                .threads(&[8, 32])
                .scale(8);
            (vec![scn], 1)
        }
        // Sharer-heavy flows: gathers, donations, NACKs, and invariant and
        // oracle checks that grow with 128 sharers.
        "wide-128" => {
            let scn = ["list", "refcount", "genome", "counter"]
                .iter()
                .fold(Scenario::new("wide-128", "128-thread cells"), |s, w| {
                    s.workload(WorkloadSpec::named(w))
                })
                .threads(&[128])
                .scale(4);
            (vec![scn], 1)
        }
        // The only workload with the simulator's event tracer on, so the
        // tracer and the lab's trace aggregation run here alone.
        "traced-apps" => {
            let mut scn = apps(Scenario::new("traced-apps", "applications, traced"))
                .threads(&[8, 32])
                .scale(2);
            scn.tuning.trace = Some(true);
            (vec![scn], 1)
        }
        _ => {
            return Err(format!(
                "unknown workload {name:?} (expected one of: {}, all)",
                NAMES.join(", ")
            ))
        }
    })
}
