//! `hostbench` — the host-cost benchmark of the CommTM lab.
//!
//! ```text
//! hostbench --workload <paper-figures|apps-long|wide-128|traced-apps|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Set-up (registry, scenarios, cells, claim order) runs several times;
//! then whole passes over the workload's cells repeat until `--seconds`
//! have passed (at least three passes). Every cell goes through the
//! layers' public calls and is checked in release: protocol invariants
//! plus the workload oracle. With `--trace 0` the last stdout line holds
//! the end-to-end metrics, medians over passes. With `--trace 1` untraced
//! and span-recording passes alternate, and the last line holds the
//! per-layer metrics plus the tracing overhead. The line before it records
//! the host, the results fingerprint and the failed-cell share. See
//! `README.md` beside this file.

mod counting;
mod host;
mod pass;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use commtm_lab::json::Json;

use crate::pass::Pass;
use crate::spans::{Layer, Spans};

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// The machine seed when `--seed` is not given: the lab's own default.
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Fewest passes per run, however long they take.
const MIN_PASSES: usize = 3;

const USAGE: &str =
    "usage: hostbench --workload <paper-figures|apps-long|wide-128|traced-apps|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        match bench(name, &args) {
            Ok((record, result)) => {
                print!("{}", record.compact());
                print!("{}", result.compact());
            }
            Err(e) => {
                eprintln!("hostbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Benchmarks one workload; returns the run record and the result line.
fn bench(name: &str, args: &Args) -> Result<(Json, Json), String> {
    let load_start = host::loadavg();

    let mut setup_ns = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let mut spans = Spans::new(args.trace);
        let start = Instant::now();
        let plan = spans.time(Layer::Plan, || workloads::plan(name, args.seed))?;
        setup_ns.push(start.elapsed().as_nanos() as f64);
        spans.collect_allocs();
        last = Some((plan, spans));
    }
    let (plan, plan_spans) = last.expect("SETUP_REPS > 0");

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = None;
    while untraced.len() + traced.len() < MIN_PASSES || Instant::now() < deadline {
        // With span recording on, untraced and traced passes alternate,
        // so both see the same host drift.
        let span_this = args.trace && untraced.len() > traced.len();
        let p = pass::run(&plan, span_this)?;
        // A fresh process's peak over set-up and one pass is what a user
        // running the grid once sees; later passes only add allocator
        // fragmentation.
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(host::peak_rss_mb()?);
        }
        if span_this {
            traced.push(p);
        } else {
            untraced.push(p);
        }
    }

    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let cells = plan.cells.len() as u64;
    let attempted = cells * all.len() as u64;
    let failed: u64 = all.iter().map(|p| p.failures.len() as u64).sum();
    let fingerprint = all[0].fingerprint.clone();
    let mut problems: Vec<String> = all
        .iter()
        .flat_map(|p| p.failures.iter().cloned())
        .take(5)
        .collect();
    if all.iter().any(|p| p.fingerprint != fingerprint) {
        problems.push("results fingerprint differs between passes".into());
    }
    // Allocation counts are a measurement, not an output of the program:
    // a layer whose counts differ between traced passes is reported beside
    // the results rather than failing them.
    let varying_allocs: Vec<&str> = Layer::ALL
        .iter()
        .filter(|l| {
            let i = **l as usize;
            traced
                .iter()
                .any(|p| p.spans.allocs[i] != traced[0].spans.allocs[i])
        })
        .map(|l| l.name())
        .collect();
    if !varying_allocs.is_empty() {
        eprintln!(
            "hostbench: {name}: allocation counts differ between traced passes in {}",
            varying_allocs.join(", ")
        );
    }
    for p in &problems {
        eprintln!("hostbench: {name}: {p}");
    }

    let untraced_wall_s = median(untraced.iter().map(|p| p.wall_ns as f64 / 1e9));
    let sim = &all[0].sim;
    let metrics = if args.trace {
        per_layer(&plan, &traced, &plan_spans, &setup_ns, untraced_wall_s)
    } else {
        [
            ("wall_s", untraced_wall_s, "s"),
            ("cpu_s", median(untraced.iter().map(|p| p.cpu_s)), "s"),
            (
                "ns_per_sim_op",
                untraced_wall_s * 1e9 / sim.total_ops.max(1) as f64,
                "ns",
            ),
            ("setup_s", median(setup_ns.iter().map(|ns| ns / 1e9)), "s"),
            (
                "peak_rss_mb",
                peak_rss_mb.expect("at least one pass ran"),
                "MB",
            ),
        ]
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect()
    };

    let mut record = vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::U64(args.seed)),
        ("span_recording", Json::Bool(args.trace)),
        ("untraced_passes", Json::U64(untraced.len() as u64)),
        ("traced_passes", Json::U64(traced.len() as u64)),
        ("cells", Json::U64(cells)),
        ("sim_ops", Json::U64(sim.total_ops)),
        // Every pass's wall time, in run order, so drift within a run shows
        // beside the medians.
        (
            "pass_wall_s",
            Json::Arr(
                untraced
                    .iter()
                    .map(|p| Json::F64(p.wall_ns as f64 / 1e9))
                    .collect(),
            ),
        ),
        ("fingerprint", Json::Str(fingerprint)),
        (
            "failed_cell_share",
            Json::F64(failed as f64 / attempted as f64),
        ),
    ];
    if args.trace {
        let traced_wall_s = median(traced.iter().map(|p| p.wall_ns as f64 / 1e9));
        record.push((
            "tracing_overhead",
            Json::obj(vec![
                ("traced_wall_s", Json::F64(traced_wall_s)),
                ("untraced_wall_s", Json::F64(untraced_wall_s)),
                ("overhead_s", Json::F64(traced_wall_s - untraced_wall_s)),
                (
                    "overhead_share",
                    Json::F64((traced_wall_s - untraced_wall_s) / untraced_wall_s),
                ),
            ]),
        ));
    }
    let mut host = host::identity();
    host.push(("loadavg_start", load_start));
    host.push(("loadavg_end", host::loadavg()));
    record.push(("host", Json::obj(host)));
    record.push((
        "varying_alloc_layers",
        Json::Arr(
            varying_allocs
                .iter()
                .map(|l| Json::Str(l.to_string()))
                .collect(),
        ),
    ));
    record.push((
        "problems",
        Json::Arr(problems.iter().cloned().map(Json::Str).collect()),
    ));

    let result = Json::obj(vec![
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let m = Json::obj(vec![
                            ("value", Json::F64(value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]);
                        (name.to_string(), m)
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok((Json::obj(record), result))
}

/// The per-layer metrics: times and allocation counts are medians over the
/// traced passes; simulated counts repeat exactly (the fingerprint checks
/// it), so they come from the first traced pass.
fn per_layer(
    plan: &workloads::Plan,
    traced: &[Pass],
    plan_spans: &Spans,
    setup_ns: &[f64],
    untraced_wall_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let first = &traced[0];
    let s = &first.sim;
    let ops = s.total_ops.max(1) as f64;
    let med = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(f));
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push((name.to_string(), value, unit));
    };

    for layer in Layer::ALL {
        let i = layer as usize;
        let (ms, allocs, bytes) = if layer == Layer::Plan {
            (
                median(setup_ns.iter().copied()) / 1e6,
                plan_spans.allocs[i] as f64,
                plan_spans.bytes[i] as f64,
            )
        } else {
            (
                med(&|p| p.spans.ns[i] as f64 / 1e6),
                med(&|p| p.spans.allocs[i] as f64),
                med(&|p| p.spans.bytes[i] as f64),
            )
        };
        put(&format!("{}_ms", layer.name()), ms, "ms");
        put(&format!("{}_allocs", layer.name()), allocs, "count");
        put(
            &format!("{}_alloc_mb", layer.name()),
            bytes / (1024.0 * 1024.0),
            "MB",
        );
    }
    put(
        "workloads.run_allocs_per_kop",
        med(&|p| p.spans.allocs[Layer::Run as usize] as f64) * 1000.0 / ops,
        "allocs/kop",
    );
    put("lab.worker_idle_ms", med(&|p| p.idle_ns as f64 / 1e6), "ms");
    put(
        "lab.trace_json_mb",
        first.trace_json_bytes as f64 / (1024.0 * 1024.0),
        "MB",
    );
    put(
        "lab.failed_cell_share",
        traced.iter().map(|p| p.failures.len()).sum::<usize>() as f64
            / (traced.len() * plan.cells.len()) as f64,
        "ratio",
    );
    put(
        "cell.ns_per_op_p50",
        med(&|p| median(p.cell_ns_per_op.iter().copied())),
        "ns",
    );
    put(
        "cell.ns_per_op_max",
        med(&|p| p.cell_ns_per_op.iter().copied().fold(0.0, f64::max)),
        "ns",
    );

    let cycles = (s.nontx_cycles + s.committed_cycles + s.aborted_cycles).max(1) as f64;
    put("sim.ops", s.total_ops as f64, "count");
    put("sim.cycles", s.total_cycles as f64, "count");
    put("htm.commits", s.commits as f64, "count");
    put("htm.aborts", s.aborts as f64, "count");
    put(
        "htm.commit_ratio",
        s.commits as f64 / (s.commits + s.aborts).max(1) as f64,
        "ratio",
    );
    put(
        "htm.wasted_cycle_share",
        s.aborted_cycles as f64 / cycles,
        "ratio",
    );
    put(
        "tx.ops_per_commit",
        s.total_ops as f64 / s.commits.max(1) as f64,
        "ops",
    );
    put("protocol.gets", s.gets as f64, "count");
    put("protocol.getx", s.getx as f64, "count");
    put("protocol.getu", s.getu as f64, "count");
    put(
        "protocol.gathers_per_kop",
        s.gathers as f64 * 1000.0 / ops,
        "1/kop",
    );
    put("protocol.reductions", s.reductions as f64, "count");
    put("protocol.splits", s.splits as f64, "count");
    put("protocol.nacks", s.nacks_sent as f64, "count");

    // Thread time: the main thread over the whole timed phase plus each
    // extra worker over the cell phase. Span self times, worker idle time
    // and the unspanned remainder add up to it.
    let traced_wall_ms = med(&|p| p.wall_ns as f64 / 1e6);
    let thread_ms = |p: &Pass| (p.wall_ns + (plan.workers as u64 - 1) * p.cells_ns) as f64 / 1e6;
    put("bench.traced_wall_ms", traced_wall_ms, "ms");
    put("bench.untraced_wall_ms", untraced_wall_s * 1e3, "ms");
    put(
        "bench.trace_overhead_ms",
        traced_wall_ms - untraced_wall_s * 1e3,
        "ms",
    );
    put("bench.thread_ms", med(&thread_ms), "ms");
    put(
        "bench.unspanned_ms",
        med(&|p| thread_ms(p) - (p.spans.total_ns() + p.idle_ns) as f64 / 1e6),
        "ms",
    );
    out
}

/// The median of `values` (the mean of the middle two for an even count).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
