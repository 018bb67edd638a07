//! End-to-end behavior-preservation gate: a pinned scenario's full
//! canonical results JSON (every cycle count, abort, and per-cell protocol
//! counter — everything except host wall-clock) is compared byte-for-byte
//! against a committed golden file.
//!
//! This is the test that lets hot-path refactors claim "same seeds in,
//! byte-identical results out": any change to protocol behavior, LRU
//! ordering, conflict arbitration, scheduling order, or RNG consumption
//! shows up as a golden diff. `pinned_grid_fingerprints_match` pins three
//! larger grids the same way, by the FNV-1a hash of their canonical JSON.
//!
//! To bless a *deliberate* behavior change, regenerate with
//! `COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test
//! determinism_golden` and review the numeric diff like any other code
//! change — the diff IS the behavior change.

use std::path::PathBuf;

use commtm::{Scheme, Tuning};
use commtm_lab::exec::{run_scenario, run_scenario_serial, ExecOptions};
use commtm_lab::json::fnv1a;
use commtm_lab::spec::{Scenario, WorkloadSpec};
use commtm_lab::trace::{summarize_trace, summary_to_json, trace_to_json};
use commtm_lab::{registry, scenarios};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The pinned scenario. Deliberately covers the protocol paths the PR-3
/// hot-path overhaul touched: both schemes (labeled U-state traffic and
/// plain GETX ping-pong), multiple thread counts (conflicts, NACKs,
/// reductions), two seeds, and enough operations for evictions in the
/// small default footprints.
fn pinned_scenario() -> Scenario {
    Scenario::new("determinism", "pinned determinism scenario")
        .workload(WorkloadSpec::named("counter").param("total_incs", 400))
        .workload(WorkloadSpec::named("refcount").param("total_ops", 240))
        .workload(WorkloadSpec::named("list").param("total_ops", 120))
        .threads(&[1, 4, 8])
        .seeds(&[11, 12])
}

#[test]
fn pinned_scenario_results_match_golden() {
    let set = run_scenario_serial(&pinned_scenario()).expect("pinned scenario runs");
    assert!(set.all_ok(), "pinned cells must all complete");
    let actual = set.canonical_json().pretty();

    let path = golden_path("determinism_results.json");
    if std::env::var_os("COMMTM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading golden file {}: {e}\n(regenerate with \
             COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test determinism_golden)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "simulated results drifted from the determinism golden: same seeds \
         must produce byte-identical results. If this change is deliberate, \
         regenerate with COMMTM_UPDATE_GOLDEN=1 and review the numeric diff"
    );
}

/// The executor must produce identical results serial and parallel — cell
/// scheduling is a host-side concern only.
#[test]
fn parallel_and_serial_results_agree() {
    let scn = pinned_scenario();
    let serial = run_scenario_serial(&scn).expect("serial runs");
    let parallel = run_scenario(
        &scn,
        &ExecOptions {
            jobs: 4,
            ..ExecOptions::default()
        },
    )
    .expect("parallel runs");
    assert_eq!(
        serial.canonical_json().pretty(),
        parallel.canonical_json().pretty(),
        "job count changed simulated results"
    );
}

/// A built-in scenario at a pinned scale; with `threads`, narrowed to
/// those thread counts and the single seed `0xC0FFEE`.
fn pinned_grid(builtin: &str, threads: Option<&[usize]>, scale: u64) -> Scenario {
    let mut scn = scenarios::builtin(builtin).expect("built-in scenario exists");
    if let Some(threads) = threads {
        scn.threads = threads.to_vec();
        scn.seeds = vec![0xC0FFEE];
    }
    scn.scale = scale;
    scn
}

/// Three larger grids, pinned by the FNV-1a hash of their canonical
/// results JSON: the counter micro at threads 1/8/32 and scale 1, its
/// full built-in grid at scale 4, and the list micro at threads 1/8/32
/// and scale 2. They run with the default worker count, so they also
/// check that results never depend on it.
///
/// A mismatch means simulated behavior changed. If the change is
/// deliberate, replace the expected hash with the one reported and say
/// why in the change description.
#[test]
fn pinned_grid_fingerprints_match() {
    let grids = [
        (
            "counter-quick",
            pinned_grid("fig09", Some(&[1, 8, 32]), 1),
            "f47b0f8cb2965f4d",
        ),
        (
            "counter-scale4",
            pinned_grid("fig09", None, 4),
            "e4f500f98a0b2cbd",
        ),
        (
            "list-quick",
            pinned_grid("fig12", Some(&[1, 8, 32]), 2),
            "f6dc1424eea45c0a",
        ),
    ];
    let mut drifted = Vec::new();
    for (name, scn, expected) in grids {
        let set = run_scenario(&scn, &ExecOptions::default()).expect("pinned grid runs");
        assert!(set.all_ok(), "{name}: every cell must complete");
        let actual = fnv1a(&set.canonical_json().pretty());
        if actual != expected {
            drifted.push(format!("{name}: expected {expected}, got {actual}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "pinned grid fingerprints drifted ({}): simulated behavior changed. \
         If the change is deliberate, re-bless by replacing each expected hash \
         in pinned_grid_fingerprints_match with the one reported here",
        drifted.join("; ")
    );
}

/// Running the counter-quick grid twice on one worker gives the same
/// fingerprint, with simulated operations actually counted: a rerun in
/// one process must not see state left behind by the first run.
#[test]
fn pinned_grid_reruns_fingerprint_identically() {
    let scn = pinned_grid("fig09", Some(&[1, 8, 32]), 1);
    let opts = ExecOptions {
        jobs: 1,
        ..ExecOptions::default()
    };
    let run = || {
        let set = run_scenario(&scn, &opts).expect("pinned grid runs");
        assert!(set.all_ok(), "every cell must complete");
        let ops: u64 = set
            .cells
            .iter()
            .filter_map(|c| c.stats.as_ref())
            .map(|s| s.total_ops)
            .sum();
        (fnv1a(&set.canonical_json().pretty()), ops)
    };
    let (first, ops) = run();
    let (second, _) = run();
    assert!(ops > 0, "simulated operations counted");
    assert_eq!(first, second, "same build, same seeds, same fingerprint");
}

/// One traced cell's side-car bytes, pinned: boruvka under the baseline
/// scheme at 32 threads and scale 2. Its ring overflows, so the pin also
/// covers the windowed tail a `dropped > 0` trace writes. The trace text
/// and the summary are hashed with FNV-1a.
///
/// A mismatch means either the simulation or the side-car's bytes
/// changed; the side-car format is part of the trace schema, so neither
/// may change silently.
#[test]
fn pinned_traced_cell_side_car_matches() {
    let scn = pinned_grid("fig16", Some(&[32]), 2);
    let cells = scn.cells();
    let cell = cells
        .iter()
        .find(|c| c.workload == "boruvka" && c.scheme == Scheme::Baseline)
        .expect("fig16 has a boruvka baseline cell");
    let tuning = Tuning {
        trace: Some(true),
        ..scn.tuning
    };
    let (_, trace) = registry::global()
        .run_cell_traced(cell, scn.scale, tuning)
        .expect("pinned cell runs");
    let trace = trace.expect("tracing on records a trace");
    assert_eq!(trace.dropped, 61_452, "the ring overflows on this cell");
    let text = trace_to_json(&trace).compact();
    assert_eq!(text.len(), 7_003_722, "side-car trace length");
    assert_eq!(fnv1a(&text), "17a00db3a264f896", "side-car trace bytes");
    let summary = summary_to_json(&summarize_trace(&trace)).compact();
    assert_eq!(
        fnv1a(&summary),
        "060ae0bcef89aa4e",
        "side-car summary bytes"
    );
}
