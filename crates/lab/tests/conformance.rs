//! Registry conformance suite: contracts every registered workload must
//! honor, checked at tiny scale so the suite stays fast.
//!
//! For each workload in the global registry:
//! - it runs under **both schemes** from the same program,
//! - its explicit **oracle passes** (called separately from `run`, the
//!   way the registry does),
//! - two **same-seed runs are byte-identical** on every exported
//!   statistic (determinism),
//! - every **schema default satisfies its own declared type** (and
//!   string defaults their declared choices),
//! - a **traced run's summary reconciles** with its statistics (commits,
//!   aborts, NACKs) and its events arrive in scheduler order,
//! - its **side-car trace round-trips**: the emitted bytes parse, match
//!   the committed schema, and decode back to the recorded events.
//!
//! A workload added to the registry without a tiny configuration below
//! fails loudly — extend `tiny_overrides`, don't skip.

use commtm::{AbortKind, AccessOp, Scheme, TraceEvent, TraceEventKind, Tuning};
use commtm_lab::json::{self, Json};
use commtm_lab::registry;
use commtm_lab::results::CellStats;
use commtm_lab::spec::{Params, Scenario, WorkloadSpec};
use commtm_lab::trace::{summarize_trace, trace_to_json, validate_schema, TRACE_SCHEMA};
use commtm_workloads::{BaseCfg, ParamSchema};

/// Overrides that shrink each workload to sub-second size. The `match`
/// is exhaustive over the registry on purpose: registering a new
/// workload forces a conscious choice of its tiny configuration.
fn tiny_overrides(name: &str) -> Params {
    let mut p = Params::new();
    match name {
        "counter" => p.set("total_incs", 80u64),
        "refcount" => p.set("total_ops", 80u64),
        "list" => p.set("total_ops", 60u64),
        "oput" => p.set("total_puts", 80u64),
        "topk" => p.set("total_inserts", 60u64).set("k", 8u64),
        "bank" => p.set("total_ops", 80u64).set("accounts", 4u64),
        "boruvka" => p.set("side", 5u64),
        "kmeans" => p.set("n", 32u64).set("iters", 1u64),
        "ssca2" => p.set("nodes", 64u64).set("edges", 96u64),
        "genome" => p
            .set("segments", 80u64)
            .set("unique", 16u64)
            .set("buckets", 32u64),
        "vacation" => p.set("tasks", 60u64).set("items", 8u64),
        other => panic!(
            "workload {other:?} has no tiny conformance configuration; \
             add one to tiny_overrides in crates/lab/tests/conformance.rs"
        ),
    };
    p
}

/// Resolves the tiny parameter set for one workload at scale 1.
fn tiny_params(name: &str, threads: usize) -> Params {
    let def = registry::resolve(name).expect("registered workload resolves");
    def.schema()
        .resolve(1, threads, &tiny_overrides(name))
        .unwrap_or_else(|e| panic!("{name}: tiny overrides must satisfy the schema: {e}"))
}

#[test]
fn every_workload_runs_and_passes_its_oracle_under_both_schemes() {
    for def in registry::global().workloads() {
        let params = tiny_params(def.name(), 3);
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            let base = BaseCfg::new(3, scheme).with_seed(0xC0FFEE);
            let mut out = def.run(base, &params);
            // The oracle is a first-class hook: call it the way the
            // registry does, not buried inside run().
            def.oracle(&base, &params, &mut out);
            assert!(
                out.report.commits() > 0,
                "{} under {scheme:?}: a tiny run must commit work",
                def.name()
            );
        }
    }
}

/// The trace and the run's statistics are two counts of one run; at
/// tiny sizes the ring never drops, so they must agree exactly, and the
/// stream must already be in scheduler `(clock, core)` order (the tracer
/// does not sort it).
#[test]
fn traced_summaries_reconcile_with_run_statistics() {
    for def in registry::global().workloads() {
        for threads in [3, 8] {
            let params = tiny_params(def.name(), threads);
            for scheme in [Scheme::Baseline, Scheme::CommTm] {
                let base = BaseCfg::new(threads, scheme)
                    .with_seed(0xC0FFEE)
                    .with_tuning(Tuning {
                        trace: Some(true),
                        ..Tuning::default()
                    });
                let (report, trace) = def.run_traced(base, &params);
                let trace = trace.expect("tracing on records a trace");
                let at = format!("{} under {scheme:?} at {threads} threads", def.name());
                let stats = CellStats::from_report(&report);
                let s = summarize_trace(&trace);
                assert_eq!(s.dropped, 0, "{at}: the ring must not drop");
                assert_eq!(s.commits, stats.commits, "{at}: commits");
                assert_eq!(s.aborts, stats.aborts, "{at}: aborts");
                assert_eq!(s.nacks, stats.nacks_sent, "{at}: NACKs");
                assert_eq!(s.begins, s.commits + s.aborts, "{at}: begins");
                assert!(
                    trace.events.is_sorted_by_key(|e| (e.clock, e.core)),
                    "{at}: events in (clock, core) order"
                );
            }
        }
    }
}

/// Decodes one side-car event object back into the event it records.
fn decode_event(e: &Json) -> Result<TraceEvent, String> {
    let u64_of = |k: &str| e.get(k).and_then(Json::as_u64).ok_or_else(|| k.to_string());
    let usize_of = |k: &str| u64_of(k).map(|v| v as usize);
    let bool_of = |k: &str| {
        e.get(k)
            .and_then(Json::as_bool)
            .ok_or_else(|| k.to_string())
    };
    let opt_of = |k: &str| match e.get(k) {
        Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| k.to_string()),
        None => Err(k.to_string()),
    };
    let str_of = |k: &str| e.get(k).and_then(Json::as_str).ok_or_else(|| k.to_string());
    let cause = || {
        let name = str_of("cause")?;
        [
            AbortKind::ReadAfterWrite,
            AbortKind::WriteAfterRead,
            AbortKind::WriteAfterWrite,
            AbortKind::GatherAfterLabeled,
            AbortKind::CrossLabel,
            AbortKind::SelfDemote,
            AbortKind::Eviction,
            AbortKind::LlcEviction,
            AbortKind::UEvictionForward,
        ]
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or(format!("unknown cause {name:?}"))
    };
    let kind = match str_of("type")? {
        "begin" => TraceEventKind::Begin { ts: u64_of("ts")? },
        "access" => {
            let name = str_of("op")?;
            TraceEventKind::Access {
                addr: u64_of("addr")?,
                line: u64_of("line")?,
                op: [
                    AccessOp::Load,
                    AccessOp::Store,
                    AccessOp::LoadL,
                    AccessOp::StoreL,
                    AccessOp::Gather,
                ]
                .into_iter()
                .find(|op| op.name() == name)
                .ok_or(format!("unknown op {name:?}"))?,
                labeled: bool_of("labeled")?,
                demoted: bool_of("demoted")?,
            }
        }
        "conflict" => TraceEventKind::Conflict {
            attacker: usize_of("attacker")?,
            victim: usize_of("victim")?,
            line: u64_of("line")?,
            cause: cause()?,
            attacker_labeled: bool_of("attacker_labeled")?,
            nack: bool_of("nack")?,
        },
        "abort" => TraceEventKind::Abort {
            cause: cause()?,
            attacker: opt_of("attacker")?.map(|a| a as usize),
            line: opt_of("line")?,
        },
        "commit" => TraceEventKind::Commit,
        other => return Err(format!("unknown type {other:?}")),
    };
    Ok(TraceEvent {
        clock: u64_of("clock")?,
        core: usize_of("core")?,
        kind,
    })
}

/// A traced run's side-car text is canonical compact JSON that the
/// committed schema accepts, and its event array decodes back to the
/// recorded stream exactly: the streaming writer loses and invents
/// nothing.
#[test]
fn side_car_traces_round_trip_through_the_parser() {
    let schema = json::parse(TRACE_SCHEMA).expect("schema parses");
    let trace_schema = schema
        .get("properties")
        .and_then(|p| p.get("cells"))
        .and_then(|c| c.get("items"))
        .and_then(|i| i.get("properties"))
        .and_then(|p| p.get("trace"))
        .expect("trace subschema");
    for def in registry::global().workloads() {
        let params = tiny_params(def.name(), 3);
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            let base = BaseCfg::new(3, scheme)
                .with_seed(0xC0FFEE)
                .with_tuning(Tuning {
                    trace: Some(true),
                    ..Tuning::default()
                });
            let trace = def.run_traced(base, &params).1.expect("a trace");
            let at = format!("{} under {scheme:?}", def.name());
            let text = trace_to_json(&trace).compact();
            let value = json::parse(&text).unwrap_or_else(|e| panic!("{at}: parse: {e}"));
            assert_eq!(value.compact(), text, "{at}: re-emitted bytes differ");
            validate_schema(trace_schema, &value)
                .unwrap_or_else(|e| panic!("{at}: schema violation: {e}"));
            let events: Vec<TraceEvent> = value
                .get("events")
                .and_then(Json::as_arr)
                .expect("events array")
                .iter()
                .map(decode_event)
                .collect::<Result<_, _>>()
                .unwrap_or_else(|k| panic!("{at}: bad event field {k}"));
            assert!(!events.is_empty(), "{at}: a tiny run records events");
            assert_eq!(events, trace.events, "{at}: decoded events");
        }
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    for def in registry::global().workloads() {
        let params = tiny_params(def.name(), 4);
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            let base = BaseCfg::new(4, scheme).with_seed(0x5EED);
            let a = CellStats::from_report(&def.run(base, &params).report);
            let b = CellStats::from_report(&def.run(base, &params).report);
            assert_eq!(
                a,
                b,
                "{} under {scheme:?}: same seed must reproduce every statistic",
                def.name()
            );
        }
    }
}

#[test]
fn every_schema_default_satisfies_its_declared_type() {
    for def in registry::global().workloads() {
        let schema = def.schema();
        for spec in schema.specs() {
            // Defaults at several (scale, threads) points all typecheck.
            for (scale, threads) in [(1, 1), (1, 8), (5, 3), (500, 128)] {
                let v = spec.default.resolve(scale, threads);
                let coerced = ParamSchema::coerce(spec, &v).unwrap_or_else(|e| {
                    panic!(
                        "{}.{}: default at scale {scale}, {threads} threads \
                         violates its own schema: {e}",
                        def.name(),
                        spec.name
                    )
                });
                assert_eq!(
                    coerced.ty(),
                    spec.ty,
                    "{}.{}: default resolves to the declared type",
                    def.name(),
                    spec.name
                );
            }
            assert!(
                !spec.doc.is_empty(),
                "{}.{}: every parameter is documented",
                def.name(),
                spec.name
            );
        }
        // Full default resolution succeeds with no overrides at all.
        schema
            .resolve(1, 2, &Params::new())
            .unwrap_or_else(|e| panic!("{}: defaults must self-resolve: {e}", def.name()));
    }
}

/// End-to-end for the string-param workload: the shipped TOML scenario
/// loads, validates, runs at tiny scale, and renders a figure — the
/// CLI → registry → figure path the acceptance criteria name.
#[test]
fn bank_toml_scenario_runs_end_to_end() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/bank.toml"))
        .expect("shipped bank scenario exists");
    let mut scn = commtm_lab::toml::scenario_from_toml(&text).expect("bank.toml loads");
    assert_eq!(scn.workloads.len(), 3, "one spec per named mix");
    assert_eq!(
        scn.workloads[0].params.get("mix").and_then(|v| v.as_str()),
        Some("transfer-heavy"),
        "the mix parameter is a string"
    );
    // Shrink for test time; the declared grid shape is what ships.
    scn.threads = vec![1, 2];
    scn.seeds = vec![0xC0FFEE];
    for w in &mut scn.workloads {
        w.params.set("total_ops", 60u64);
    }
    let set = commtm_lab::exec::run_scenario_serial(&scn).expect("bank scenario runs");
    assert!(set.all_ok(), "every bank cell passes its oracle");
    let svg = commtm_lab::figures::render_figure(&scn, &set);
    assert!(svg.starts_with("<svg"), "bank renders a speedup figure");
    assert!(svg.contains("bank audit-heavy"), "series per named mix");
    // The string param survives the results JSON round trip.
    let back =
        commtm_lab::results::ResultSet::from_json_str(&set.to_json().pretty()).expect("parses");
    let cell = &back.cells[0].cell;
    assert_eq!(
        cell.params.get("mix").and_then(|v| v.as_str()),
        Some("transfer-heavy")
    );
}

/// The machine-readable schema dump (`commtm-lab workloads --json`) is
/// pinned to a committed golden: any change to the parameter surface —
/// a new workload, a renamed parameter, a changed default or doc — shows
/// up as a diff to review deliberately. Regenerate with
/// `COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test conformance`
/// (or `commtm-lab workloads --json > docs/workloads.json`).
#[test]
fn workload_schema_dump_matches_committed_golden() {
    let actual = registry::global().schema_json().pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/workloads.json");
    if std::env::var_os("COMMTM_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &actual).expect("write schema golden");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("reading {path}: {e}\n(regenerate with COMMTM_UPDATE_GOLDEN=1)")
    });
    assert_eq!(
        actual, expected,
        "the workload parameter surface drifted from docs/workloads.json; \
         if intentional, regenerate it and review the diff like any API change"
    );
}

/// Ill-typed or unknown parameters must fail validation with
/// schema-derived messages — never a mid-sweep panic.
#[test]
fn scenario_validation_rejects_schema_violations_before_running() {
    // Unknown parameter: nearest-name suggestion.
    let s = Scenario::new("t", "t").workload(WorkloadSpec::named("bank").param("total_op", 10u64));
    let err = s.validate().unwrap_err();
    assert!(err.contains("did you mean \"total_ops\"?"), "{err}");
    // Wrong type for a string param.
    let s = Scenario::new("t", "t").workload(WorkloadSpec::named("bank").param("mix", 3u64));
    assert!(s.validate().unwrap_err().contains("must be string"));
    // Value outside the declared choices.
    let s =
        Scenario::new("t", "t").workload(WorkloadSpec::named("bank").param("mix", "transferheavy"));
    let err = s.validate().unwrap_err();
    assert!(err.contains("must be one of"), "{err}");
}
