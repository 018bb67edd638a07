//! The files of a batch directory: `grid.json` plus one snapshot per
//! finished cell.
//!
//! `grid.json` records which grid the directory holds: target,
//! overrides, theme, shard slice, grid fingerprint and cell count. It is
//! written once, before any cell runs. Every finished cell, completed or
//! failed, leaves `cells/<scenario>-<i>.json`: the cell's timing-tier
//! JSON plus a `"fingerprint"`, the FNV-1a hash of its canonical JSON.
//! Each file is written to a `.tmp` sibling and atomically renamed, so a
//! `kill -9` at any instant loses at most the cells that were in flight:
//! a cell with a snapshot is finished, a cell without one is fresh, and a
//! leftover `.tmp` file is ignored.

use std::path::{Path, PathBuf};

use crate::json::{self, fnv1a, Json};
use crate::results::CellResult;
use crate::spec::Cell;

use super::shard::Shard;

/// The grid record's file name inside a batch output directory.
pub const GRID_FILE: &str = "grid.json";

/// The format version written into `grid.json`.
pub const GRID_VERSION: u64 = 1;

/// The generator string recorded in batch manifests and reports. One
/// spelling for direct `run --all`, sharded runs and `merge`, so a merged
/// report is byte-identical to a single-process one.
pub const GENERATOR: &str = "commtm-lab batch";

/// The contents of `grid.json`: which grid this directory holds.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestRecord {
    /// What was asked for: a built-in scenario name, a `.toml` path, a
    /// registry workload name, or `"--all"`.
    pub target: String,
    /// Grid overrides in effect, re-applied verbatim on `--resume`.
    pub overrides: super::Overrides,
    /// Figure color theme name (themes change figure bytes, so a resume
    /// or merge must reproduce the original choice).
    pub theme: String,
    /// Which slice of the grid this directory owns.
    pub shard: Shard,
    /// Fingerprint of the full deterministic cell enumeration — shards of
    /// the same grid share it; anything else refuses to resume/merge.
    pub grid_fingerprint: String,
    /// Total cells in the full grid (all shards).
    pub total_cells: usize,
}

impl ManifestRecord {
    /// The JSON form written to `grid.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::U64(GRID_VERSION)),
            ("generator", Json::Str(GENERATOR.into())),
            ("target", Json::Str(self.target.clone())),
            ("overrides", self.overrides.to_json()),
            ("theme", Json::Str(self.theme.clone())),
            (
                "shard",
                Json::obj(vec![
                    ("index", Json::U64(self.shard.index as u64)),
                    ("total", Json::U64(self.shard.total as u64)),
                ]),
            ),
            ("grid_fingerprint", Json::Str(self.grid_fingerprint.clone())),
            ("total_cells", Json::U64(self.total_cells as u64)),
        ])
    }

    /// Parses the JSON form ([`ManifestRecord::to_json`]).
    ///
    /// # Errors
    ///
    /// Fails on an unsupported version, a missing required field, an
    /// unknown theme, or a shard slice outside its count.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = v.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != GRID_VERSION {
            return Err(format!(
                "grid version {version} not supported (this build writes {GRID_VERSION})"
            ));
        }
        let shard = v.get("shard").ok_or("grid missing \"shard\"")?;
        let shard = Shard {
            index: shard.get("index").and_then(Json::as_u64).unwrap_or(0) as usize,
            total: shard.get("total").and_then(Json::as_u64).unwrap_or(1) as usize,
        };
        if shard.index >= shard.total {
            return Err(format!("shard {shard} is out of range"));
        }
        let theme = v
            .get("theme")
            .and_then(Json::as_str)
            .unwrap_or("light")
            .to_string();
        if crate::figures::theme_by_name(&theme).is_none() {
            return Err(format!("unknown theme {theme:?}"));
        }
        Ok(ManifestRecord {
            target: v
                .get("target")
                .and_then(Json::as_str)
                .ok_or("grid missing \"target\"")?
                .to_string(),
            overrides: super::Overrides::from_json(
                v.get("overrides").ok_or("grid missing \"overrides\"")?,
            )?,
            theme,
            shard,
            grid_fingerprint: v
                .get("grid_fingerprint")
                .and_then(Json::as_str)
                .ok_or("grid missing \"grid_fingerprint\"")?
                .to_string(),
            total_cells: v.get("total_cells").and_then(Json::as_u64).unwrap_or(0) as usize,
        })
    }

    /// Parses `grid.json` text.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or any [`ManifestRecord::from_json`] error.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text)?)
    }

    /// Loads `<dir>/grid.json`.
    ///
    /// # Errors
    ///
    /// Fails on a missing or unreadable file, or any
    /// [`ManifestRecord::parse`] error, naming the file.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(GRID_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes `<dir>/grid.json` crash-safely.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        write_atomic(&dir.join(GRID_FILE), &self.to_json().pretty())
    }
}

/// The determinism fingerprint of one cell result: FNV-1a over its
/// canonical (timing-free) JSON. Stored in the cell's snapshot and
/// re-verified whenever the snapshot is loaded.
pub fn cell_fingerprint(result: &CellResult) -> String {
    fnv1a(&result.to_json(false).pretty())
}

/// Writes `content` to `path` crash-safely: it goes to `<path>.tmp`
/// first and is atomically renamed over `path`, so a killed run never
/// leaves a half-written file under the final name.
///
/// # Errors
///
/// Fails on filesystem errors.
pub fn write_atomic(path: &Path, content: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    let tmp = tmp_path(path);
    std::fs::write(&tmp, content).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), path.display()))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// The snapshot text of one finished cell: its timing-tier JSON plus
/// its [`cell_fingerprint`].
pub fn cell_snapshot(result: &CellResult) -> String {
    let mut snapshot = result.to_json(true);
    if let Json::Obj(pairs) = &mut snapshot {
        pairs.push(("fingerprint".into(), Json::Str(cell_fingerprint(result))));
    }
    snapshot.pretty()
}

/// Writes one finished cell's snapshot ([`cell_snapshot`]) to `dir/rel`.
/// Failed cells are written too.
///
/// # Errors
///
/// Fails on filesystem errors.
pub fn write_cell_file(dir: &Path, rel: &str, result: &CellResult) -> Result<(), String> {
    write_atomic(&dir.join(rel), &cell_snapshot(result))
}

/// Deletes the snapshot `dir/rel` and any partial `.tmp` beside it. A
/// fresh run does this for every cell it owns, so nothing from an
/// earlier grid in the same directory can pass for one of its cells.
///
/// # Errors
///
/// Fails on filesystem errors other than a missing file.
pub fn remove_cell_file(dir: &Path, rel: &str) -> Result<(), String> {
    let path = dir.join(rel);
    for p in [tmp_path(&path), path] {
        match std::fs::remove_file(&p) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("removing {}: {e}", p.display()));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Loads the snapshot `dir/rel` of `expected`, or `None` if the cell has
/// none (it never finished). See [`parse_cell_snapshot`] for the checks.
///
/// # Errors
///
/// Fails on an unreadable file or any [`parse_cell_snapshot`] error,
/// naming the file.
pub fn load_cell_file(
    dir: &Path,
    rel: &str,
    expected: &Cell,
) -> Result<Option<CellResult>, String> {
    let path = dir.join(rel);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    parse_cell_snapshot(&text, expected)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses one cell snapshot and checks that it is the cell the plan
/// expects (same identity) and unchanged (its contents hash to the
/// fingerprint it records). The returned result carries the *plan's*
/// cell — snapshots don't round-trip `workload_index`, and results must
/// be indistinguishable from a fresh run.
///
/// # Errors
///
/// Fails on malformed JSON, a missing fingerprint, an identity mismatch,
/// or a fingerprint mismatch.
pub fn parse_cell_snapshot(text: &str, expected: &Cell) -> Result<CellResult, String> {
    let v = json::parse(text)?;
    let recorded = v
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("snapshot missing \"fingerprint\"")?;
    let mut result = CellResult::from_json(&v, expected.index)?;
    let c = &result.cell;
    if (
        c.workload.as_str(),
        c.label.as_str(),
        c.threads,
        c.scheme,
        c.seed_index,
        c.seed,
    ) != (
        expected.workload.as_str(),
        expected.label.as_str(),
        expected.threads,
        expected.scheme,
        expected.seed_index,
        expected.seed,
    ) {
        return Err(format!(
            "snapshot holds a different cell ({}) than the plan expects ({})",
            c.key(),
            expected.key(),
        ));
    }
    result.cell = expected.clone();
    let actual = cell_fingerprint(&result);
    if actual != recorded {
        return Err(format!(
            "fingerprint mismatch (snapshot records {recorded}, its contents hash to \
             {actual}) — the snapshot was modified or belongs to a different grid"
        ));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scenario, WorkloadSpec};

    fn manifest() -> ManifestRecord {
        ManifestRecord {
            target: "fig09".into(),
            overrides: super::super::Overrides::default(),
            theme: "light".into(),
            shard: Shard::WHOLE,
            grid_fingerprint: "aabbccdd00112233".into(),
            total_cells: 4,
        }
    }

    fn two_cells() -> Vec<Cell> {
        Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 200))
            .threads(&[1, 2])
            .schemes(&[commtm::Scheme::CommTm])
            .seeds(&[1])
            .cells()
    }

    fn failed(cell: &Cell) -> CellResult {
        CellResult {
            cell: cell.clone(),
            stats: None,
            error: Some("oracle: counter mismatch".into()),
            wall_ms: 12,
            trace: None,
            phases: None,
        }
    }

    #[test]
    fn manifest_and_events_roundtrip() {
        let m = manifest();
        assert_eq!(ManifestRecord::parse(&m.to_json().pretty()).unwrap(), m);
        assert!(ManifestRecord::parse(&m.to_json().pretty().replace("light", "neon")).is_err());

        // A cell's two outcomes, completed and failed, round-trip through
        // their snapshots with timing intact.
        let cells = two_cells();
        let scenario = Scenario::new("t", "t");
        let done = crate::exec::run_cell(crate::registry::global(), &cells[0], &scenario);
        assert!(done.stats.is_some(), "{:?}", done.error);
        let dir = std::env::temp_dir().join(format!("commtm-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for result in [done, failed(&cells[1])] {
            write_cell_file(&dir, "cells/x.json", &result).unwrap();
            let back = load_cell_file(&dir, "cells/x.json", &result.cell)
                .unwrap()
                .expect("snapshot written");
            assert_eq!(back, result);
        }
        remove_cell_file(&dir, "cells/x.json").unwrap();
        assert_eq!(load_cell_file(&dir, "cells/x.json", &cells[0]), Ok(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_of_another_cell_names_both_cells() {
        let cells = two_cells();
        let snapshot = cell_snapshot(&failed(&cells[0]));
        let err = parse_cell_snapshot(&snapshot, &cells[1]).unwrap_err();
        assert!(
            err.contains(&format!(
                "different cell ({}) than the plan expects ({})",
                cells[0].key(),
                cells[1].key()
            )),
            "{err}"
        );
        // The same snapshot verifies against its own cell.
        assert!(parse_cell_snapshot(&snapshot, &cells[0]).is_ok());
    }
}
