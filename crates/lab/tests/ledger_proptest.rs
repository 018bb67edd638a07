//! Property tests for the batch grid service: the loaders of the two
//! files a batch directory holds (`grid.json` and the cell snapshots)
//! under arbitrary bytes, truncations and single-byte flips, and the
//! deterministic cell→shard assignment. See docs/BATCH.md.

use std::path::PathBuf;
use std::sync::OnceLock;

use commtm_lab::batch::shard::assign;
use commtm_lab::batch::{self, ledger, BatchPlan, ManifestRecord, Overrides, Shard};
use commtm_lab::exec::ExecOptions;
use commtm_lab::registry;
use proptest::prelude::*;

/// One finished smoke grid: its plan and the files its directory held.
/// `grid.json` and the first cell snapshot seed the mutations below.
struct Seed {
    plan: BatchPlan,
    grid: String,
    /// `(file, text)` of every cell snapshot, in plan order.
    snapshots: Vec<(String, String)>,
    /// The first cell's canonical JSON.
    canonical: String,
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commtm-ledger-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed() -> &'static Seed {
    static SEED: OnceLock<Seed> = OnceLock::new();
    SEED.get_or_init(|| {
        let reg = registry::global();
        let ov = Overrides {
            scale: Some(1),
            ..Overrides::default()
        };
        let plan = BatchPlan::new(reg, "smoke", &ov, 1).unwrap();
        let dir = tmp("seed");
        let outcome = batch::run_batch(
            reg,
            &plan,
            Shard::WHOLE,
            &dir,
            false,
            "light",
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(outcome.all_ok);
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap();
        let seed = Seed {
            grid: read(ledger::GRID_FILE),
            snapshots: plan
                .jobs
                .iter()
                .map(|job| (job.file.clone(), read(&job.file)))
                .collect(),
            canonical: canonical(outcome.results[0].as_ref().unwrap()),
            plan,
        };
        let _ = std::fs::remove_dir_all(&dir);
        seed
    })
}

fn canonical(result: &commtm_lab::results::CellResult) -> String {
    result.to_json(false).pretty()
}

/// Decodes one generated mutation of `valid`: arbitrary bytes (mode 0),
/// a truncation (mode 1) or a single-byte flip (mode 2).
fn mutate(valid: &str, mode: usize, bytes: &[u8], pos: usize, value: u8) -> String {
    let mut out = match mode {
        0 => bytes.to_vec(),
        1 => valid.as_bytes()[..pos % (valid.len() + 1)].to_vec(),
        _ => valid.as_bytes().to_vec(),
    };
    if mode == 2 {
        out[pos % valid.len()] = value;
    }
    String::from_utf8_lossy(&out).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A damaged `grid.json` never panics its loader, and when it still
    /// loads, `--resume` and `merge` can only reopen the very grid it was
    /// written for: any change to the grid definition breaks the
    /// fingerprint check.
    #[test]
    fn damaged_grid_json_errs_or_reopens_the_same_grid(
        mode in 0usize..3,
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        pos in 0usize..4096,
        value in 0u8..=255,
    ) {
        let s = seed();
        let text = mutate(&s.grid, mode, &bytes, pos, value);
        if let Ok(m) = ManifestRecord::parse(&text) {
            prop_assert!(m.shard.index < m.shard.total, "shard {} accepted", m.shard);
            if let Ok(plan) = BatchPlan::reopen(registry::global(), &m) {
                prop_assert_eq!(&plan.grid_fingerprint, &s.plan.grid_fingerprint);
            }
        }
    }

    /// A damaged cell snapshot never panics its loader: it is rejected,
    /// or it still holds exactly the original result. Through
    /// `run_batch --resume` every such input ends in a clean grid with
    /// the original deterministic results.
    #[test]
    fn damaged_snapshot_errs_or_holds_the_original_result(
        mode in 0usize..3,
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        pos in 0usize..8192,
        value in 0u8..=255,
    ) {
        let s = seed();
        let text = mutate(&s.snapshots[0].1, mode, &bytes, pos, value);
        if let Ok(result) = ledger::parse_cell_snapshot(&text, s.plan.cell_of(&s.plan.jobs[0])) {
            prop_assert_eq!(&canonical(&result), &s.canonical);
        }

        // The seed directory again, with the damaged first snapshot.
        let dir = tmp("resume");
        std::fs::create_dir_all(dir.join("cells")).unwrap();
        std::fs::write(dir.join(ledger::GRID_FILE), &s.grid).unwrap();
        for (i, (file, snapshot)) in s.snapshots.iter().enumerate() {
            std::fs::write(dir.join(file), if i == 0 { &text } else { snapshot }).unwrap();
        }
        let resumed = batch::run_batch(
            registry::global(),
            &s.plan,
            Shard::WHOLE,
            &dir,
            true,
            "light",
            &ExecOptions::default(),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(resumed.all_ok);
        prop_assert_eq!(resumed.summary.ran + resumed.summary.completed_kept, s.plan.jobs.len());
        prop_assert_eq!(&canonical(resumed.results[0].as_ref().unwrap()), &s.canonical);
    }

    /// The shard assignment is a total, disjoint, deterministic partition,
    /// and LPT-greedy keeps shard loads within one longest cell.
    #[test]
    fn shard_assignment_is_disjoint_complete_deterministic(
        costs in proptest::collection::vec(0u64..5_000, 0..80),
        total in 1usize..8,
    ) {
        let a = assign(&costs, total);
        // Total and disjoint by shape: every cell names exactly one shard.
        prop_assert_eq!(a.len(), costs.len());
        prop_assert!(a.iter().all(|&s| s < total), "shard indices in range");
        // Pure function of (costs, total).
        prop_assert_eq!(&a, &assign(&costs, total));
        let mut load = vec![0u64; total];
        for (cell, &s) in a.iter().enumerate() {
            load[s] += costs[cell].max(1);
        }
        if !costs.is_empty() {
            let longest = costs.iter().map(|&c| c.max(1)).max().unwrap();
            let spread = load.iter().max().unwrap() - load.iter().min().unwrap();
            prop_assert!(
                spread <= longest,
                "LPT balances to within one longest cell: {:?}",
                load
            );
        }
    }
}
