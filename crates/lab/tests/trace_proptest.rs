//! Property tests for `trace-validate`'s loader: a real trace side-car
//! under arbitrary bytes, truncations and single-byte flips must make
//! `trace::validate_side_car` return `Ok` or `Err`, never panic. The
//! mutations match `ledger_proptest.rs`. See docs/OBSERVABILITY.md.

use std::sync::OnceLock;

use commtm::Tuning;
use commtm_lab::exec::run_scenario_serial;
use commtm_lab::spec::{Scenario, WorkloadSpec};
use commtm_lab::trace::{trace_artifacts, validate_side_car};
use proptest::prelude::*;

/// The side-car of a small traced sweep: one counter cell per scheme at
/// two threads, so the event stream holds every event kind and the
/// whole file stays a few kilobytes.
fn side_car() -> &'static str {
    static SIDE_CAR: OnceLock<String> = OnceLock::new();
    SIDE_CAR.get_or_init(|| {
        let scn = Scenario::new("trace-proptest", "side-car seed")
            .workload(WorkloadSpec::named("counter").param("total_incs", 12u64))
            .threads(&[2])
            .seeds(&[0xC0FFEE])
            .tuning(Tuning {
                trace: Some(true),
                ..Tuning::default()
            });
        let set = run_scenario_serial(&scn).expect("seed sweep runs");
        assert!(set.all_ok());
        trace_artifacts(&scn, &set, Default::default())
            .expect("traced cells yield artifacts")
            .side_car
            .1
    })
}

/// Mutation positions are drawn below this.
const MAX_POS: usize = 65_536;

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

#[test]
fn the_seed_side_car_validates() {
    let text = side_car();
    assert!(
        text.len() <= MAX_POS,
        "mutation positions must reach every byte"
    );
    assert!(text.contains("\"type\":\"begin\"") && text.contains("\"type\":\"commit\""));
    validate_side_car(text).expect("an emitted side-car validates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A damaged side-car never panics the validator, and a truncation
    /// that cuts into the JSON document (not just its trailing newline)
    /// is always rejected.
    #[test]
    fn damaged_side_car_errs_or_validates_without_panicking(
        mode in 0usize..3,
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        pos in 0usize..MAX_POS,
        value in 0u8..=255,
    ) {
        let valid = side_car();
        let text = mutate(valid, mode, &bytes, pos, value);
        let verdict = validate_side_car(&text);
        if mode == 1 && text.len() + 1 < valid.len() {
            prop_assert!(verdict.is_err(), "truncated to {} bytes but accepted", text.len());
        }
    }
}
