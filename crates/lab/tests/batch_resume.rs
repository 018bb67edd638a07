//! End-to-end tests for the batch grid service: a killed-and-resumed,
//! sharded-and-merged grid must be byte-identical to an uninterrupted
//! single-process run, failures must be snapshotted and render as gaps,
//! `--fail-fast` skips must stay fresh, and a fresh run must never pick
//! up snapshots it did not write. See docs/BATCH.md.

use std::path::{Path, PathBuf};

use commtm_lab::batch::{self, BatchOutcome, BatchPlan, ManifestRecord, Overrides, Shard};
use commtm_lab::exec::{run_scenario, ExecOptions};
use commtm_lab::registry;
use commtm_lab::results::CellResult;
use commtm_lab::spec::{Scenario, WorkloadSpec};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commtm-batch-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke_overrides() -> Overrides {
    Overrides {
        scale: Some(1),
        ..Overrides::default()
    }
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file))
        .unwrap_or_else(|e| panic!("reading {}/{file}: {e}", dir.display()))
}

/// Deletes one cell's snapshot and leaves a partial `.json.tmp` in its
/// place — what a `kill -9` while that snapshot was being written leaves
/// behind.
fn simulate_kill_mid_write(dir: &Path, file: &str) {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    std::fs::write(dir.join(format!("{file}.tmp")), &text[..text.len() / 2]).unwrap();
}

/// Runs (or with `resume`, finishes) the whole grid of `plan` in `dir`.
fn run_whole(plan: &BatchPlan, dir: &Path, resume: bool, opts: &ExecOptions) -> BatchOutcome {
    batch::run_batch(
        registry::global(),
        plan,
        Shard::WHOLE,
        dir,
        resume,
        "light",
        opts,
    )
    .unwrap()
}

/// The cell snapshot of `job`, verified against the plan.
fn snapshot(plan: &BatchPlan, dir: &Path, job: &batch::PlanJob) -> Option<CellResult> {
    batch::ledger::load_cell_file(dir, &job.file, plan.cell_of(job)).unwrap()
}

#[test]
fn fresh_batch_matches_direct_run_byte_for_byte() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let plan = BatchPlan::new(reg, "smoke", &ov, 1).unwrap();
    let dir = tmp("fresh");
    let opts = ExecOptions::default();
    let outcome = run_whole(&plan, &dir, false, &opts);
    assert!(outcome.all_ok);
    assert_eq!(outcome.summary.fresh, plan.jobs.len());
    let sets = batch::assemble_sets(&plan, &outcome.results).unwrap();

    let mut scenario = batch::resolve_target(reg, "smoke").unwrap().remove(0);
    ov.apply(reg, &mut scenario).unwrap();
    let direct = run_scenario(&scenario, &opts).unwrap();
    assert_eq!(
        sets[0].canonical_json().pretty(),
        direct.canonical_json().pretty(),
        "the batch path must not change deterministic results"
    );

    // grid.json records the grid, and every cell left a verifiable
    // snapshot of a completed run behind.
    assert_eq!(
        ManifestRecord::load(&dir).unwrap(),
        plan.manifest(Shard::WHOLE, "light")
    );
    for job in &plan.jobs {
        let cell = snapshot(&plan, &dir, job).unwrap_or_else(|| panic!("{}: no snapshot", job.id));
        assert!(cell.stats.is_some(), "{}: expected completed", job.id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_resumed_sharded_merged_grid_is_byte_identical() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let opts = ExecOptions::default();
    let theme = commtm_lab::figures::theme_by_name("light").unwrap();

    // Reference: one uninterrupted whole-grid run.
    let ref_dir = tmp("ref");
    let plan = BatchPlan::new(reg, "smoke", &ov, 1).unwrap();
    let outcome = run_whole(&plan, &ref_dir, false, &opts);
    let sets = batch::assemble_sets(&plan, &outcome.results).unwrap();
    assert!(batch::emit_report(&ref_dir, &plan, &sets, theme, true).unwrap());

    // The same grid as two shards; shard 1 is killed while writing a
    // snapshot.
    let plan2 = BatchPlan::new(reg, "smoke", &ov, 2).unwrap();
    assert_eq!(
        plan2.grid_fingerprint, plan.grid_fingerprint,
        "sharding must not change the grid"
    );
    let s0 = tmp("s0");
    let s1 = tmp("s1");
    let sh0 = Shard { index: 0, total: 2 };
    let sh1 = Shard { index: 1, total: 2 };
    batch::run_batch(reg, &plan2, sh0, &s0, false, "light", &opts).unwrap();
    batch::run_batch(reg, &plan2, sh1, &s1, false, "light", &opts).unwrap();
    let own = plan2.own_jobs(sh1);
    let killed = &plan2.jobs[own[own.len() - 1]].file;
    simulate_kill_mid_write(&s1, killed);

    // Resume shard 1: the cell with no snapshot re-runs as fresh (its
    // partial temp file is ignored and replaced), everything else is kept.
    let resumed = batch::run_batch(reg, &plan2, sh1, &s1, true, "light", &opts).unwrap();
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.fresh, 1);
    assert_eq!(resumed.summary.completed_kept, own.len() - 1);
    assert_eq!(resumed.summary.ran, 1);
    assert!(s1.join(killed).exists());
    assert!(!s1.join(format!("{killed}.tmp")).exists());

    // Merge both shards; the combined report must match the reference
    // byte-for-byte (manifest.json carries wall times and is exempt).
    let merged = tmp("merged");
    assert!(batch::merge::merge_dirs(reg, &[s0.clone(), s1.clone()], &merged, true).unwrap());
    for file in ["smoke.json", "smoke.svg", "index.html"] {
        assert_eq!(
            read(&ref_dir, file),
            read(&merged, file),
            "{file} differs between direct and kill/resume/merge runs"
        );
    }

    for d in [ref_dir, s0, s1, merged] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn resume_reruns_cells_whose_snapshots_fail_verification() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let opts = ExecOptions::default();
    let plan = BatchPlan::new(reg, "smoke", &ov, 1).unwrap();
    let dir = tmp("damaged");
    let first = run_whole(&plan, &dir, false, &opts);

    // Damage one snapshot on disk; its recorded fingerprint no longer
    // matches, so resume must re-run exactly that cell.
    let job = &plan.jobs[0];
    let path = dir.join(&job.file);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("\"stats\"", "\"statz\"")).unwrap();

    let resumed = run_whole(&plan, &dir, true, &opts);
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.verify_failed, 1);
    assert_eq!(resumed.summary.ran, 1);
    assert_eq!(resumed.summary.completed_kept, plan.jobs.len() - 1);

    // The re-run reproduces the original deterministic results.
    let a = batch::assemble_sets(&plan, &first.results).unwrap();
    let b = batch::assemble_sets(&plan, &resumed.results).unwrap();
    assert_eq!(
        a[0].canonical_json().pretty(),
        b[0].canonical_json().pretty()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A two-cell grid whose cells always fail: the cycle limit trips before
/// the counter workload can finish.
fn failing_scenario() -> Scenario {
    let mut scn = Scenario::new("failgrid", "cells that trip the cycle limit")
        .workload(WorkloadSpec::named("counter").param("total_incs", 5_000))
        .threads(&[2, 4])
        .schemes(&[commtm::Scheme::Baseline])
        .seeds(&[1]);
    scn.tuning.max_cycles = Some(10);
    scn
}

#[test]
fn failed_cells_journal_as_failed_and_render_as_gaps() {
    let reg = registry::global();
    let plan = BatchPlan::from_scenarios(
        reg,
        "failgrid",
        &Overrides::default(),
        vec![failing_scenario()],
        1,
    )
    .unwrap();
    let dir = tmp("failing");
    let opts = ExecOptions::default();
    let outcome = run_whole(&plan, &dir, false, &opts);
    assert!(!outcome.all_ok, "every cell trips the cycle limit");
    assert_eq!(outcome.summary.failed_now, 2);

    // The snapshots record the failures (with the cause), not a crash.
    for job in &plan.jobs {
        let cell = snapshot(&plan, &dir, job).unwrap_or_else(|| panic!("{}: no snapshot", job.id));
        assert!(cell.stats.is_none(), "{}: expected failed", job.id);
        let error = cell.error.unwrap_or_default();
        assert!(error.contains("CycleLimit"), "cause recorded: {error}");
    }

    // The report renders, flags the scenario, and names the failed cells.
    let theme = commtm_lab::figures::theme_by_name("light").unwrap();
    let sets = batch::assemble_sets(&plan, &outcome.results).unwrap();
    assert!(!batch::emit_report(&dir, &plan, &sets, theme, true).unwrap());
    let manifest = read(&dir, "manifest.json");
    assert!(manifest.contains("\"failed\""));
    let index = read(&dir, "index.html");
    assert!(index.contains("SOME CELLS FAILED"));
    assert!(index.contains("failed-cells"));
    assert!(index.contains("counter[counter] t=2"), "failed cell named");

    // Resume retries failed cells (and fails again, deterministically).
    let resumed = run_whole(&plan, &dir, true, &opts);
    assert_eq!(resumed.summary.retried_failed, 2);
    assert_eq!(resumed.summary.failed_now, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fail_fast_skips_are_not_journaled_and_stay_fresh() {
    let reg = registry::global();
    let plan = BatchPlan::from_scenarios(
        reg,
        "failgrid",
        &Overrides::default(),
        vec![failing_scenario()],
        1,
    )
    .unwrap();
    let dir = tmp("failfast");
    let opts = ExecOptions {
        jobs: 1,
        fail_fast: true,
        ..ExecOptions::default()
    };
    let outcome = run_whole(&plan, &dir, false, &opts);
    assert!(!outcome.all_ok);
    assert_eq!(outcome.summary.failed_now, 1, "first cell fails");
    assert_eq!(outcome.summary.skipped_fail_fast, 1, "second never claimed");

    // The skipped cell has no snapshot: it is fresh for resume.
    let snapshots = plan
        .jobs
        .iter()
        .filter(|job| snapshot(&plan, &dir, job).is_some())
        .count();
    assert_eq!(snapshots, 1);
    let resumed = run_whole(&plan, &dir, true, &ExecOptions::default());
    assert_eq!(resumed.summary.retried_failed, 1);
    assert_eq!(resumed.summary.fresh, 1);
    assert_eq!(resumed.summary.skipped_fail_fast, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_incomplete_or_mismatched_shards() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let opts = ExecOptions::default();
    let plan = BatchPlan::new(reg, "smoke", &ov, 2).unwrap();
    let s0 = tmp("v0");
    let s1 = tmp("v1");
    let sh0 = Shard { index: 0, total: 2 };
    let sh1 = Shard { index: 1, total: 2 };
    batch::run_batch(reg, &plan, sh0, &s0, false, "light", &opts).unwrap();

    // Missing shard: the cover is incomplete.
    let out = tmp("vout");
    let err = batch::merge::merge_dirs(reg, std::slice::from_ref(&s0), &out, true).unwrap_err();
    assert!(err.contains("sharded 2 way(s)"), "{err}");

    // A shard of a *different* grid: fingerprints disagree.
    let other = BatchPlan::new(
        reg,
        "smoke",
        &Overrides {
            threads: Some(vec![1]),
            ..smoke_overrides()
        },
        2,
    )
    .unwrap();
    batch::run_batch(reg, &other, sh1, &s1, false, "light", &opts).unwrap();
    let err = batch::merge::merge_dirs(reg, &[s0.clone(), s1.clone()], &out, true).unwrap_err();
    assert!(err.contains("different grid"), "{err}");

    // An unfinished shard: merge points at the resume command.
    batch::run_batch(reg, &plan, sh1, &s1, false, "light", &opts).unwrap();
    let s1_job = &plan.jobs[plan.own_jobs(sh1)[0]];
    simulate_kill_mid_write(&s1, &s1_job.file);
    let err = batch::merge::merge_dirs(reg, &[s0.clone(), s1.clone()], &out, true).unwrap_err();
    assert!(err.contains("--resume"), "{err}");

    // A damaged snapshot: merge fails naming the file.
    batch::run_batch(reg, &plan, sh1, &s1, true, "light", &opts).unwrap();
    let path = s1.join(&s1_job.file);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("\"stats\"", "\"statz\"")).unwrap();
    let err = batch::merge::merge_dirs(reg, &[s0.clone(), s1.clone()], &out, true).unwrap_err();
    assert!(err.contains(&s1_job.file), "{err}");
    assert!(err.contains("fingerprint mismatch"), "{err}");

    for d in [s0, s1, out] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn fresh_run_deletes_another_grids_snapshots() {
    let reg = registry::global();
    let dir = tmp("regrid");

    // Grid A: the two failgrid cells, at scale 1 and without the cycle
    // limit, so both complete and leave self-consistent snapshots.
    let mut a = failing_scenario();
    a.tuning.max_cycles = None;
    a.scale = 1;
    let plan_a =
        BatchPlan::from_scenarios(reg, "failgrid", &Overrides::default(), vec![a], 1).unwrap();
    let done = run_whole(&plan_a, &dir, false, &ExecOptions::default());
    assert!(done.all_ok);

    // Grid B: the same scenario and cells at another scale, started fresh
    // in the same directory and stopped by --fail-fast after one cell.
    // Its other cell's file name is A's, and the snapshot check compares
    // cell identity but not scale, so only the fresh start's deletion
    // keeps A's result out of B.
    let mut b = failing_scenario();
    b.scale = 2;
    let plan_b =
        BatchPlan::from_scenarios(reg, "failgrid", &Overrides::default(), vec![b], 1).unwrap();
    assert_ne!(plan_b.grid_fingerprint, plan_a.grid_fingerprint);
    let opts = ExecOptions {
        jobs: 1,
        fail_fast: true,
        ..ExecOptions::default()
    };
    let stopped = run_whole(&plan_b, &dir, false, &opts);
    assert_eq!(stopped.summary.skipped_fail_fast, 1);

    let resumed = run_whole(&plan_b, &dir, true, &ExecOptions::default());
    assert_eq!(resumed.summary.completed_kept, 0, "A's snapshot was loaded");
    assert_eq!(resumed.summary.fresh, 1);
    assert_eq!(resumed.summary.retried_failed, 1);
    assert_eq!(resumed.summary.failed_now, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leftover_partial_tmp_is_ignored_and_its_cell_reruns() {
    let reg = registry::global();
    let opts = ExecOptions::default();
    let plan = BatchPlan::new(reg, "smoke", &smoke_overrides(), 1).unwrap();
    let dir = tmp("leftover");
    let first = run_whole(&plan, &dir, false, &opts);

    let job = &plan.jobs[0];
    std::fs::remove_file(dir.join(&job.file)).unwrap();
    std::fs::write(
        dir.join(format!("{}.tmp", job.file)),
        "{\"workload\": \"cou",
    )
    .unwrap();

    let resumed = run_whole(&plan, &dir, true, &opts);
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.fresh, 1);
    assert_eq!(resumed.summary.verify_failed, 0);
    assert_eq!(resumed.summary.ran, 1);
    assert_eq!(resumed.summary.completed_kept, plan.jobs.len() - 1);
    assert!(snapshot(&plan, &dir, job).is_some());
    let a = batch::assemble_sets(&plan, &first.results).unwrap();
    let b = batch::assemble_sets(&plan, &resumed.results).unwrap();
    assert_eq!(
        a[0].canonical_json().pretty(),
        b[0].canonical_json().pretty()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
