//! Declarative scenario specifications.
//!
//! A [`Scenario`] describes a sweep grid: which workloads to run, over
//! which thread counts, schemes and seeds, at what scale, and under which
//! machine-parameter [`Tuning`]. Expanding a scenario yields one [`Cell`]
//! per grid point; cells are independent, which is what lets the executor
//! fan them out across host threads.

use commtm::{Scheme, Tuning};

/// How a scenario's results should be rendered (mirrors the paper's
/// figure styles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportKind {
    /// Speedup-vs-threads series per workload (Figs. 9–16).
    Speedup,
    /// Fig. 17-style nontx/committed/aborted cycle breakdowns.
    CycleBreakdown,
    /// Fig. 18-style wasted-cycle breakdowns by dependency type.
    WastedBreakdown,
    /// Fig. 19-style GETS/GETX/GETU traffic breakdowns.
    GetsBreakdown,
    /// Table II-style workload characteristics (labeled fractions, gathers).
    Table2,
}

impl ReportKind {
    /// The canonical spelling used in TOML specs and the `run --all`
    /// manifest (the inverse of [`ReportKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            ReportKind::Speedup => "speedup",
            ReportKind::CycleBreakdown => "cycles",
            ReportKind::WastedBreakdown => "wasted",
            ReportKind::GetsBreakdown => "gets",
            ReportKind::Table2 => "table2",
        }
    }

    /// Parses a report kind name (as used in TOML specs).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "speedup" => Ok(ReportKind::Speedup),
            "cycles" | "cycle-breakdown" => Ok(ReportKind::CycleBreakdown),
            "wasted" | "wasted-breakdown" => Ok(ReportKind::WastedBreakdown),
            "gets" | "gets-breakdown" => Ok(ReportKind::GetsBreakdown),
            "table2" | "characteristics" => Ok(ReportKind::Table2),
            other => Err(format!(
                "unknown report kind {other:?} (expected speedup, cycles, wasted, gets or table2)"
            )),
        }
    }
}

/// Formats a scheme the way specs and result files spell it.
pub fn scheme_name(s: Scheme) -> &'static str {
    match s {
        Scheme::Baseline => "baseline",
        Scheme::CommTm => "commtm",
    }
}

/// Parses a scheme name.
pub fn parse_scheme(name: &str) -> Result<Scheme, String> {
    match name.to_ascii_lowercase().as_str() {
        "baseline" | "htm" => Ok(Scheme::Baseline),
        "commtm" | "comm-tm" => Ok(Scheme::CommTm),
        other => Err(format!(
            "unknown scheme {other:?} (expected baseline or commtm)"
        )),
    }
}

/// The error for a knob of the removed epoch-parallel machine engine
/// (`machine_threads`, `adaptive_groups`, `--machine-threads`). Scenario
/// files, the command line and batch `grid.json` records that still set
/// one are rejected with it rather than silently ignored.
pub fn removed_knob_error(knob: &str) -> String {
    format!(
        "`{knob}` was removed: every simulated machine now runs on one host \
         thread; use --jobs N to run grid cells in parallel"
    )
}

pub use commtm_workloads::{ParamType, ParamValue, Params};

/// One workload entry in a scenario: a registry name, an optional display
/// label (for figures that run the same workload under several parameter
/// variants), and parameter overrides.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Registry name (`counter`, `refcount`, ... — see [`crate::registry`]).
    pub workload: String,
    /// Display label; defaults to the workload name.
    pub label: Option<String>,
    /// Parameter overrides applied over the registry defaults.
    pub params: Params,
    /// When set, this spec only runs under these schemes (intersected
    /// with the scenario's scheme dimension). Lets a parameter variant
    /// that only matters under one scheme skip redundant cells — e.g.
    /// `gather = 0` is meaningless under the baseline, which would
    /// otherwise re-simulate identical baseline runs.
    pub schemes: Option<Vec<Scheme>>,
}

impl WorkloadSpec {
    /// A spec running `workload` with default parameters.
    pub fn named(workload: &str) -> Self {
        WorkloadSpec {
            workload: workload.to_string(),
            label: None,
            params: Params::new(),
            schemes: None,
        }
    }

    /// Sets the display label.
    pub fn label(mut self, label: &str) -> Self {
        self.label = Some(label.to_string());
        self
    }

    /// Overrides one parameter with a typed value (`u64`, `f64`, `bool`,
    /// `&str`, or a [`ParamValue`]).
    pub fn param(mut self, name: &str, value: impl Into<ParamValue>) -> Self {
        self.params.set(name, value);
        self
    }

    /// Restricts this spec to a subset of the scenario's schemes.
    pub fn only_schemes(mut self, schemes: &[Scheme]) -> Self {
        self.schemes = Some(schemes.to_vec());
        self
    }

    /// The label shown in reports.
    pub fn display(&self) -> &str {
        self.label.as_deref().unwrap_or(&self.workload)
    }
}

/// A quantitative expectation evaluated on a speedup report. These carry
/// the original per-figure thresholds (e.g. "CommTM scales near-linearly
/// while the baseline serializes") that a generic CommTM-vs-baseline
/// comparison cannot express; peaks are the best speedup over the swept
/// thread counts, relative to each label's serial baseline reference.
#[derive(Clone, Debug, PartialEq)]
pub enum SpeedupCheck {
    /// `label`'s CommTM peak reaches `frac` × the largest swept thread
    /// count (near-linear scaling).
    NearLinear {
        /// Workload display label.
        label: String,
        /// Required fraction of ideal scaling.
        frac: f64,
    },
    /// `label`'s baseline peak stays below `bound` (serialization).
    BaselineBelow {
        /// Workload display label.
        label: String,
        /// Exclusive upper bound on the baseline peak.
        bound: f64,
    },
    /// `label`'s baseline peak exceeds `bound` (the baseline scales too).
    BaselineAbove {
        /// Workload display label.
        label: String,
        /// Exclusive lower bound on the baseline peak.
        bound: f64,
    },
    /// `label`'s CommTM peak beats its baseline peak by `factor`×.
    BeatsBaseline {
        /// Workload display label.
        label: String,
        /// Required CommTM-over-baseline peak ratio.
        factor: f64,
    },
    /// Under CommTM, `faster`'s peak is at least `slower`'s peak
    /// (cross-variant ordering, e.g. with vs. without gathers).
    FasterThan {
        /// Label expected to peak higher.
        faster: String,
        /// Label expected to peak lower.
        slower: String,
    },
}

/// A declarative sweep: the cartesian product of workloads × threads ×
/// schemes × seeds, at one scale, under one tuning.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (also the default output-file stem).
    pub name: String,
    /// Human title printed in report headers.
    pub title: String,
    /// The paper's qualitative claim, printed alongside results.
    pub claim: String,
    /// Workloads (with parameter overrides) to sweep.
    pub workloads: Vec<WorkloadSpec>,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Schemes to sweep.
    pub schemes: Vec<Scheme>,
    /// Machine seeds to sweep (each seed is one full grid replica).
    pub seeds: Vec<u64>,
    /// Workload scale factor (multiplies default operation counts).
    pub scale: u64,
    /// Machine-parameter overrides applied to every cell.
    pub tuning: Tuning,
    /// How results are rendered.
    pub report: ReportKind,
    /// Figure-specific quantitative checks for speedup reports; when
    /// empty, the report falls back to a generic CommTM-vs-baseline
    /// comparison per label.
    pub speedup_checks: Vec<SpeedupCheck>,
}

/// The default seed sequence: the workloads' base seed, stepped the same
/// way the original figure harness stepped its per-seed replicas.
pub fn default_seeds(count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| 0xC0FFEEu64.wrapping_add(i.wrapping_mul(0x9E37)))
        .collect()
}

impl Scenario {
    /// Starts a scenario with the default grid: threads 1–128 as in the
    /// paper's sweeps, both schemes, one seed, scale 1, speedup report.
    pub fn new(name: &str, title: &str) -> Self {
        Scenario {
            name: name.to_string(),
            title: title.to_string(),
            claim: String::new(),
            workloads: Vec::new(),
            threads: vec![1, 8, 32, 64, 128],
            schemes: vec![Scheme::Baseline, Scheme::CommTm],
            seeds: default_seeds(1),
            scale: 1,
            tuning: Tuning::default(),
            report: ReportKind::Speedup,
            speedup_checks: Vec::new(),
        }
    }

    /// Adds a workload spec.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workloads.push(spec);
        self
    }

    /// Sets the paper claim.
    pub fn claim(mut self, claim: &str) -> Self {
        self.claim = claim.to_string();
        self
    }

    /// Sets the thread counts.
    pub fn threads(mut self, threads: &[usize]) -> Self {
        self.threads = threads.to_vec();
        self
    }

    /// Sets the schemes.
    pub fn schemes(mut self, schemes: &[Scheme]) -> Self {
        self.schemes = schemes.to_vec();
        self
    }

    /// Sets the seed list explicitly.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the scale factor.
    pub fn scale(mut self, scale: u64) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the tuning.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Sets the report kind.
    pub fn report(mut self, report: ReportKind) -> Self {
        self.report = report;
        self
    }

    /// Adds a figure-specific quantitative speedup check.
    pub fn check(mut self, check: SpeedupCheck) -> Self {
        self.speedup_checks.push(check);
        self
    }

    /// Replaces the scheme dimension, dropping workload specs whose
    /// scheme restriction no longer intersects it (a CLI `--schemes`
    /// override must not be rejected just because a built-in carries a
    /// variant for a scheme that is no longer swept). Returns the labels
    /// of the dropped specs so callers can report them.
    pub fn set_schemes(&mut self, schemes: &[Scheme]) -> Vec<String> {
        self.schemes = schemes.to_vec();
        let mut dropped = Vec::new();
        self.workloads.retain(|w| match &w.schemes {
            Some(r) if !r.iter().any(|s| schemes.contains(s)) => {
                dropped.push(w.display().to_string());
                false
            }
            _ => true,
        });
        dropped
    }

    /// Drops thread counts above `max`. If *every* swept count exceeds
    /// the cap, the grid falls back to the single point `max` itself
    /// (capped below the original minimum), so a `--threads-max` run is
    /// never empty — at the cost of simulating a thread count the
    /// scenario didn't originally declare.
    pub fn cap_threads(&mut self, max: usize) {
        let min = self.threads.iter().copied().min();
        self.threads.retain(|&t| t <= max);
        if self.threads.is_empty() {
            if let Some(m) = min {
                self.threads.push(m.min(max.max(1)));
            }
        }
    }

    /// Validates the grid dimensions against the global workload
    /// registry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first empty or invalid dimension,
    /// unknown workload, or parameter override that fails its workload's
    /// schema.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_in(crate::registry::global())
    }

    /// Like [`Scenario::validate`], against an explicit
    /// [`crate::registry::Registry`] (custom drivers with their own
    /// registered workloads).
    ///
    /// # Errors
    ///
    /// See [`Scenario::validate`].
    pub fn validate_in(&self, registry: &crate::registry::Registry) -> Result<(), String> {
        if self.workloads.is_empty() {
            return Err(format!("scenario {:?} has no workloads", self.name));
        }
        if self.threads.is_empty() {
            return Err(format!("scenario {:?} has no thread counts", self.name));
        }
        if let Some(t) = self.threads.iter().find(|&&t| t == 0 || t > 128) {
            return Err(format!(
                "scenario {:?}: thread count {t} outside 1..=128",
                self.name
            ));
        }
        if self.schemes.is_empty() {
            return Err(format!("scenario {:?} has no schemes", self.name));
        }
        if self.seeds.is_empty() {
            return Err(format!("scenario {:?} has no seeds", self.name));
        }
        if self.scale == 0 {
            return Err(format!("scenario {:?}: scale must be >= 1", self.name));
        }
        // Thread counts, schemes, seeds and display labels form each cell's
        // identity (results are keyed by label × threads × scheme × seed);
        // duplicates would silently conflate distinct cells in aggregation
        // and diffing.
        for (i, t) in self.threads.iter().enumerate() {
            if self.threads[..i].contains(t) {
                return Err(format!(
                    "scenario {:?}: duplicate thread count {t}",
                    self.name
                ));
            }
        }
        for (i, s) in self.schemes.iter().enumerate() {
            if self.schemes[..i].contains(s) {
                return Err(format!(
                    "scenario {:?}: duplicate scheme {}",
                    self.name,
                    scheme_name(*s)
                ));
            }
        }
        for (i, s) in self.seeds.iter().enumerate() {
            if self.seeds[..i].contains(s) {
                return Err(format!("scenario {:?}: duplicate seed {s:#x}", self.name));
            }
        }
        for (i, w) in self.workloads.iter().enumerate() {
            if self.workloads[..i]
                .iter()
                .any(|p| p.display() == w.display())
            {
                return Err(format!(
                    "scenario {:?}: duplicate workload label {:?} — give each \
                     parameterization a distinct `label`",
                    self.name,
                    w.display()
                ));
            }
            // A scheme restriction disjoint from the scenario's scheme
            // dimension would run zero cells — vacuous success.
            if let Some(restriction) = &w.schemes {
                if !restriction.iter().any(|s| self.schemes.contains(s)) {
                    return Err(format!(
                        "scenario {:?}: workload {:?} restricts to schemes {:?}, none of \
                         which the scenario sweeps ({:?})",
                        self.name,
                        w.display(),
                        restriction
                            .iter()
                            .map(|&s| scheme_name(s))
                            .collect::<Vec<_>>(),
                        self.schemes
                            .iter()
                            .map(|&s| scheme_name(s))
                            .collect::<Vec<_>>()
                    ));
                }
            }
        }
        for w in &self.workloads {
            let Some(def) = registry.resolve(&w.workload) else {
                return Err(format!(
                    "scenario {:?}: unknown workload {:?} (known: {})",
                    self.name,
                    w.workload,
                    registry.names().join(", ")
                ));
            };
            // The schema declares every parameter a workload reads, with
            // its type; an override outside it is a typo that would
            // silently run the default configuration, and an ill-typed one
            // would otherwise surface as a panic in the middle of a sweep.
            if let Err(e) = def.schema().check(&w.params) {
                return Err(format!(
                    "scenario {:?}: workload {:?} {e}",
                    self.name, w.workload
                ));
            }
        }
        Ok(())
    }

    /// Expands the grid into independent cells, in deterministic
    /// workload-major order (workload, then threads, then scheme, then
    /// seed).
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (w_idx, w) in self.workloads.iter().enumerate() {
            for &threads in &self.threads {
                for &scheme in &self.schemes {
                    if w.schemes.as_ref().is_some_and(|s| !s.contains(&scheme)) {
                        continue;
                    }
                    for (seed_index, &seed) in self.seeds.iter().enumerate() {
                        cells.push(Cell {
                            index: cells.len(),
                            workload_index: w_idx,
                            workload: w.workload.clone(),
                            label: w.display().to_string(),
                            params: w.params.clone(),
                            threads,
                            scheme,
                            seed_index,
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }
}

/// One grid point of a scenario: a fully-specified, independently-runnable
/// simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Position in the scenario's cell list (stable output order).
    pub index: usize,
    /// Which [`Scenario::workloads`] entry this cell came from.
    pub workload_index: usize,
    /// Registry workload name.
    pub workload: String,
    /// Display label of the workload spec.
    pub label: String,
    /// Parameter overrides from the workload spec.
    pub params: Params,
    /// Thread count.
    pub threads: usize,
    /// Scheme.
    pub scheme: Scheme,
    /// Which seed replica this is.
    pub seed_index: usize,
    /// The machine seed.
    pub seed: u64,
}

impl Cell {
    /// A stable identity string for matching cells across result sets.
    pub fn key(&self) -> String {
        format!(
            "{}[{}] t={} {} seed={:#x}",
            self.label,
            self.workload,
            self.threads,
            scheme_name(self.scheme),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_enumerate_the_full_grid_deterministically() {
        let s = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter"))
            .workload(WorkloadSpec::named("oput"))
            .threads(&[1, 4])
            .seeds(&[7, 8]);
        let cells = s.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert_eq!(cells, s.cells());
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        // Workload-major order.
        assert!(cells[..8].iter().all(|c| c.workload == "counter"));
        assert_eq!(cells[0].seed, 7);
        assert_eq!(cells[1].seed, 8);
    }

    #[test]
    fn params_shadow_and_merge() {
        let mut base = Params::new();
        base.set("k", 100u64).set("n", 5u64);
        let mut over = Params::new();
        over.set("k", 7u64);
        let merged = base.overridden_by(&over);
        assert_eq!(merged.get_u64("k"), Some(7));
        assert_eq!(merged.get_u64("n"), Some(5));
        assert_eq!(merged.get("missing"), None);
    }

    #[test]
    fn validation_rejects_ill_typed_params() {
        // A string where the schema wants a u64 fails at validate time,
        // naming the declared type — never a mid-sweep panic.
        let s = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", "many"));
        let err = s.validate().unwrap_err();
        assert!(err.contains("must be u64"), "{err}");
        // A bank mix outside the declared choices is rejected with the
        // accepted list.
        let s = Scenario::new("t", "t").workload(WorkloadSpec::named("bank").param("mix", "wild"));
        let err = s.validate().unwrap_err();
        assert!(err.contains("must be one of"), "{err}");
        assert!(err.contains("transfer-heavy"), "{err}");
        // Typed values that match their schema pass.
        let ok = Scenario::new("t", "t")
            .workload(
                WorkloadSpec::named("bank")
                    .param("mix", "audit-heavy")
                    .param("total_ops", 50u64),
            )
            .workload(WorkloadSpec::named("refcount").param("gather", false));
        ok.validate().unwrap();
    }

    #[test]
    fn cap_threads_keeps_grid_nonempty() {
        let mut s = Scenario::new("t", "t").workload(WorkloadSpec::named("counter"));
        s.cap_threads(16);
        assert_eq!(s.threads, vec![1, 8]);
        let mut s2 = Scenario::new("t", "t").threads(&[64, 128]);
        s2.cap_threads(16);
        assert_eq!(s2.threads, vec![16]);
    }

    #[test]
    fn validation_rejects_disjoint_scheme_restrictions() {
        let s = Scenario::new("t", "t")
            .schemes(&[Scheme::Baseline])
            .workload(WorkloadSpec::named("counter").only_schemes(&[Scheme::CommTm]));
        let err = s.validate().unwrap_err();
        assert!(err.contains("none of which the scenario sweeps"), "{err}");
        let ok = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter").only_schemes(&[Scheme::CommTm]));
        assert!(ok.validate().is_ok());
        assert!(ok.cells().iter().all(|c| c.scheme == Scheme::CommTm));
    }

    #[test]
    fn validation_rejects_unknown_params() {
        let s =
            Scenario::new("t", "t").workload(WorkloadSpec::named("counter").param("total_inc", 50));
        let err = s.validate().unwrap_err();
        assert!(err.contains("no parameter \"total_inc\""), "{err}");
        assert!(
            err.contains("total_incs"),
            "error lists the known params: {err}"
        );
        let ok = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 50));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validation_rejects_colliding_cell_identities() {
        // Same workload twice without distinct labels: cells would share
        // their result key and be conflated by aggregation/diffing.
        let s = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("refcount"))
            .workload(WorkloadSpec::named("refcount").param("gather", 0));
        assert!(s
            .validate()
            .unwrap_err()
            .contains("duplicate workload label"));
        let ok = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("refcount").label("w/ gather"))
            .workload(
                WorkloadSpec::named("refcount")
                    .label("w/o gather")
                    .param("gather", 0),
            );
        assert!(ok.validate().is_ok());
        let s = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter"))
            .seeds(&[5, 5]);
        assert!(s.validate().unwrap_err().contains("duplicate seed"));
    }

    #[test]
    fn validation_rejects_duplicate_threads_and_schemes() {
        // Two cells would share one result key; diffing matches by the
        // first hit and silently ignores the other.
        let s = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter"))
            .threads(&[4, 4]);
        let err = s.validate().unwrap_err();
        assert!(err.contains("duplicate thread count 4"), "{err}");
        let s = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter"))
            .schemes(&[Scheme::CommTm, Scheme::CommTm]);
        let err = s.validate().unwrap_err();
        assert!(err.contains("duplicate scheme commtm"), "{err}");
    }

    #[test]
    fn validation_catches_bad_grids() {
        let s = Scenario::new("t", "t");
        assert!(s.validate().is_err(), "no workloads");
        let s = Scenario::new("t", "t").workload(WorkloadSpec::named("nope"));
        assert!(s.validate().unwrap_err().contains("unknown workload"));
        let s = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter"))
            .threads(&[0]);
        assert!(s.validate().is_err());
        let ok = Scenario::new("t", "t").workload(WorkloadSpec::named("counter"));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn scheme_names_roundtrip() {
        for s in [Scheme::Baseline, Scheme::CommTm] {
            assert_eq!(parse_scheme(scheme_name(s)).unwrap(), s);
        }
        assert!(parse_scheme("x").is_err());
    }

    #[test]
    fn report_kind_names_roundtrip() {
        for k in [
            ReportKind::Speedup,
            ReportKind::CycleBreakdown,
            ReportKind::WastedBreakdown,
            ReportKind::GetsBreakdown,
            ReportKind::Table2,
        ] {
            assert_eq!(ReportKind::parse(k.name()).unwrap(), k);
        }
    }
}
