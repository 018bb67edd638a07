//! Merging shard directories back into one report.
//!
//! `commtm-lab merge <dir>...` takes the output directories of an
//! `n`-way sharded run, validates that their `grid.json` records describe
//! the same grid (target, overrides, grid fingerprint), that together
//! they cover every shard exactly once, and that every cell is accounted
//! for (a verifying snapshot, completed or failed), then assembles the
//! full result sets and emits the identical report a single-process
//! `run --all` would have written.

use std::path::{Path, PathBuf};

use crate::registry::Registry;
use crate::results::CellResult;

use super::ledger::load_cell_file;
use super::{BatchPlan, ManifestRecord};

/// A validated set of shard inputs: the rebuilt plan plus each shard's
/// directory, indexed by shard index.
pub struct MergeInputs {
    /// The plan rebuilt from the (consistent) shard records.
    pub plan: BatchPlan,
    /// The directory of each shard, indexed by shard index.
    pub shards: Vec<PathBuf>,
    /// The theme name every shard recorded.
    pub theme: String,
}

/// Loads and cross-validates the `grid.json` records in `dirs`.
///
/// # Errors
///
/// Fails when a record is missing or corrupt, when records disagree on
/// target/overrides/theme/grid-fingerprint/shard-count, when a shard
/// index is duplicated or missing (incomplete cover), or when the grid
/// the records describe can no longer be re-derived identically (the
/// scenarios changed under them).
pub fn validate(reg: &Registry, dirs: &[PathBuf]) -> Result<MergeInputs, String> {
    if dirs.is_empty() {
        return Err("merge needs at least one shard directory".into());
    }
    let mut records: Vec<(PathBuf, ManifestRecord)> = Vec::new();
    for dir in dirs {
        records.push((dir.clone(), ManifestRecord::load(dir)?));
    }
    let first = records[0].1.clone();
    for (dir, m) in &records[1..] {
        if m.target != first.target
            || m.grid_fingerprint != first.grid_fingerprint
            || m.overrides != first.overrides
            || m.theme != first.theme
        {
            return Err(format!(
                "{}: grid.json describes a different grid than {} (target {:?} vs {:?}, \
                 fingerprint {} vs {})",
                dir.display(),
                dirs[0].display(),
                m.target,
                first.target,
                m.grid_fingerprint,
                first.grid_fingerprint,
            ));
        }
        if m.shard.total != first.shard.total {
            return Err(format!(
                "{}: shard count {} disagrees with {} ({})",
                dir.display(),
                m.shard.total,
                dirs[0].display(),
                first.shard.total,
            ));
        }
    }
    let total = first.shard.total;
    if records.len() != total {
        return Err(format!(
            "grid was sharded {total} way(s) but {} director(ies) were given — pass every \
             shard's output directory exactly once",
            records.len()
        ));
    }
    let mut by_index: Vec<Option<PathBuf>> = vec![None; total];
    for (dir, m) in records {
        let i = m.shard.index;
        if let Some(prev) = &by_index[i] {
            return Err(format!(
                "shard {i} appears twice: {} and {}",
                prev.display(),
                dir.display()
            ));
        }
        by_index[i] = Some(dir);
    }
    let shards: Vec<PathBuf> = by_index.into_iter().flatten().collect();
    let plan = BatchPlan::reopen(reg, &first).map_err(|e| format!("{}: {e}", dirs[0].display()))?;
    Ok(MergeInputs {
        plan,
        shards,
        theme: first.theme,
    })
}

/// The full merge: validate shard directories, collect every cell from
/// its owning shard's snapshot (fingerprint-verified; a failed cell
/// carries its error and renders as a gap), and emit the combined report
/// into `out_dir`. Returns whether every cell succeeded, mirroring a
/// single-process run with failures.
///
/// # Errors
///
/// See [`validate`]; also fails on a cell with no snapshot (naming the
/// shard to resume), an unreadable or damaged snapshot, or report
/// filesystem errors.
pub fn merge_dirs(
    reg: &Registry,
    dirs: &[PathBuf],
    out_dir: &Path,
    quiet_report: bool,
) -> Result<bool, String> {
    let inputs = validate(reg, dirs)?;
    let theme = crate::figures::theme_by_name(&inputs.theme)
        .ok_or_else(|| format!("unknown theme {:?}", inputs.theme))?;
    let plan = &inputs.plan;
    let mut results: Vec<Option<CellResult>> = Vec::with_capacity(plan.jobs.len());
    for job in &plan.jobs {
        let dir = &inputs.shards[job.shard];
        let Some(result) = load_cell_file(dir, &job.file, plan.cell_of(job))? else {
            return Err(format!(
                "cell {} is unfinished in shard {} ({}) — resume it first: \
                 commtm-lab run --resume {}",
                job.id,
                job.shard,
                dir.display(),
                dir.display(),
            ));
        };
        results.push(Some(result));
    }
    let sets = super::assemble_sets(plan, &results)?;
    super::emit_report(out_dir, plan, &sets, theme, quiet_report)
}
