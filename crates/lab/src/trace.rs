//! Trace aggregation: conflict attribution, abort-cause breakdowns, and
//! the cross-transaction speculation audit.
//!
//! The protocol layer captures a per-transaction event stream (see
//! `commtm_protocol::trace`); this module turns one run's [`Trace`] into
//! the lab's analysis artifacts:
//!
//! - [`TraceSummary`] — event counts, aborts keyed by cause, the
//!   labeled-vs-plain conflict matrix, and the hottest conflicting lines,
//! - the **speculation audit** — committed transactions whose footprint
//!   overlaps lines *speculatively written* by a concurrently-aborted
//!   transaction on another core. Aborted writes are rolled back before
//!   anyone can read them, so an incident is a near-miss contention
//!   report, not a correctness violation; see docs/OBSERVABILITY.md,
//! - JSON export of traces and summaries, plus a minimal JSON-Schema
//!   validator for the committed `docs/trace.schema.json` (the
//!   `commtm-lab trace-validate` gate, [`validate_side_car`]). Event
//!   streams are written straight to text by [`TraceJson`]; only the
//!   small per-cell summary is built as a [`Json`] tree,
//! - the [`TraceArtifacts`] a traced sweep writes: side-car, abort-cause
//!   figure and manifest attribution, all read from the one
//!   [`CellTrace`] summary per cell.
//!
//! Everything here is a pure function of the commit-ordered event stream.

use std::collections::BTreeMap;

use commtm::{FxHashMap, FxHashSet, Trace, TraceEvent, TraceEventKind};

use crate::json::{self, write_escaped, write_u64, Json};
use crate::results::{identity_json, ResultSet};
use crate::spec::{scheme_name, Cell, Scenario};

/// The committed schema the `trace-validate` subcommand checks emitted
/// trace files against.
pub const TRACE_SCHEMA: &str = include_str!("../../../docs/trace.schema.json");

/// How many hot conflicting lines a summary retains.
pub const HOT_LINES: usize = 8;

/// Cap on reported speculation-audit incidents per trace; the overflow is
/// counted in [`TraceSummary::audit_truncated`].
pub const MAX_AUDIT_INCIDENTS: usize = 32;

/// One speculation-audit finding: a committed transaction whose accessed
/// lines overlap a concurrently-aborted transaction's speculative writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditIncident {
    /// Core that committed.
    pub committed_core: usize,
    /// Scheduler clock of the commit.
    pub commit_clock: u64,
    /// Core whose overlapping transaction aborted.
    pub aborted_core: usize,
    /// Scheduler clock of the abort.
    pub abort_clock: u64,
    /// The overlapping lines (sorted).
    pub lines: Vec<u64>,
}

/// One traced cell's event stream and its [`TraceSummary`], which
/// [`crate::exec::run_cell`] computes once, on the worker thread, when it
/// takes the trace. Every reader (result JSON, side-car, abort-cause
/// figure, manifest attribution) uses this stored summary.
#[derive(Clone, Debug, PartialEq)]
pub struct CellTrace {
    /// The commit-ordered event stream.
    pub trace: Trace,
    /// Its summary.
    pub summary: TraceSummary,
}

/// Aggregated view of one run's trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Transactions begun (retries count separately).
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transaction attempts aborted.
    pub aborts: u64,
    /// Conflicts arbitrated.
    pub conflicts: u64,
    /// Conflicts resolved by NACKing the requester.
    pub nacks: u64,
    /// Events dropped by the capture ring (a windowed trace undercounts).
    pub dropped: u64,
    /// Abort counts keyed by stable cause name.
    pub abort_causes: BTreeMap<String, u64>,
    /// Labeled-vs-plain conflict matrix, indexed
    /// `attacker_labeled * 2 + victim_labeled`: `[plain→plain,
    /// plain→labeled, labeled→plain, labeled→labeled]`.
    pub label_matrix: [u64; 4],
    /// The most-conflicted lines as `(line, conflicts)`, descending by
    /// count (ties by line), at most [`HOT_LINES`] entries.
    pub hot_lines: Vec<(u64, u64)>,
    /// Speculation-audit incidents (at most [`MAX_AUDIT_INCIDENTS`]).
    pub audit: Vec<AuditIncident>,
    /// Incidents found beyond the reporting cap.
    pub audit_truncated: u64,
}

/// A live (begun, not yet resolved) transaction's audit state.
#[derive(Default)]
struct TxLive {
    begin_clock: u64,
    lines: FxHashSet<u64>,
    writes: FxHashSet<u64>,
}

/// An aborted transaction retained while its interval can still overlap a
/// future commit.
struct AbortedTx {
    core: usize,
    begin_clock: u64,
    abort_clock: u64,
    writes: FxHashSet<u64>,
}

/// Builds the [`TraceSummary`] for one trace.
///
/// The audit walks the commit-ordered stream with one pass: each core's
/// live transaction accumulates its accessed and speculatively-written
/// lines; aborts park that state; commits intersect against parked aborts
/// whose `[begin, abort]` interval overlaps the committed `[begin,
/// commit]` interval. Parked aborts are pruned once no live or future
/// transaction can reach back to them, so the pass stays linear in
/// practice. Its maps use the deterministic `FxHash`, so the pass makes
/// the same allocations every time it runs.
pub fn summarize_trace(trace: &Trace) -> TraceSummary {
    let mut s = TraceSummary {
        dropped: trace.dropped,
        ..TraceSummary::default()
    };
    let mut line_conflicts: FxHashMap<u64, u64> = FxHashMap::default();
    // Each core's live transaction, indexed by core.
    let mut live: Vec<Option<TxLive>> = Vec::new();
    live.resize_with(trace.threads, || None);
    let mut parked: Vec<AbortedTx> = Vec::new();

    for ev in &trace.events {
        match &ev.kind {
            TraceEventKind::Begin { .. } => {
                s.begins += 1;
                if ev.core >= live.len() {
                    live.resize_with(ev.core + 1, || None);
                }
                live[ev.core] = Some(TxLive {
                    begin_clock: ev.clock,
                    ..TxLive::default()
                });
            }
            TraceEventKind::Access { line, op, .. } => {
                if let Some(Some(tx)) = live.get_mut(ev.core) {
                    tx.lines.insert(*line);
                    if op.is_store() {
                        tx.writes.insert(*line);
                    }
                }
            }
            TraceEventKind::Conflict {
                line,
                cause,
                attacker_labeled,
                nack,
                ..
            } => {
                s.conflicts += 1;
                if *nack {
                    s.nacks += 1;
                }
                *line_conflicts.entry(*line).or_insert(0) += 1;
                // The victim side is "labeled" when the conflict class
                // only exists for labeled state (a plain line can't raise
                // a cross-label or gather-after-labeled dependency).
                let victim_labeled = matches!(
                    cause,
                    commtm::AbortKind::CrossLabel | commtm::AbortKind::GatherAfterLabeled
                );
                s.label_matrix[usize::from(*attacker_labeled) * 2 + usize::from(victim_labeled)] +=
                    1;
            }
            TraceEventKind::Abort { cause, .. } => {
                s.aborts += 1;
                match s.abort_causes.get_mut(cause.name()) {
                    Some(n) => *n += 1,
                    None => {
                        s.abort_causes.insert(cause.name().to_string(), 1);
                    }
                }
                if let Some(tx) = live.get_mut(ev.core).and_then(Option::take) {
                    if !tx.writes.is_empty() {
                        parked.push(AbortedTx {
                            core: ev.core,
                            begin_clock: tx.begin_clock,
                            abort_clock: ev.clock,
                            writes: tx.writes,
                        });
                    }
                }
                prune_parked(&mut parked, &live, ev.clock);
            }
            TraceEventKind::Commit => {
                s.commits += 1;
                if let Some(tx) = live.get_mut(ev.core).and_then(Option::take) {
                    for a in &parked {
                        if a.core == ev.core
                            || tx.begin_clock > a.abort_clock
                            || a.begin_clock > ev.clock
                        {
                            continue;
                        }
                        let mut lines: Vec<u64> =
                            tx.lines.intersection(&a.writes).copied().collect();
                        if lines.is_empty() {
                            continue;
                        }
                        if s.audit.len() >= MAX_AUDIT_INCIDENTS {
                            s.audit_truncated += 1;
                            continue;
                        }
                        lines.sort_unstable();
                        s.audit.push(AuditIncident {
                            committed_core: ev.core,
                            commit_clock: ev.clock,
                            aborted_core: a.core,
                            abort_clock: a.abort_clock,
                            lines,
                        });
                    }
                }
                prune_parked(&mut parked, &live, ev.clock);
            }
        }
    }

    let mut hot: Vec<(u64, u64)> = line_conflicts.into_iter().collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(HOT_LINES);
    s.hot_lines = hot;
    s
}

/// Drops parked aborts no live or future transaction can overlap: the
/// stream's clocks are non-decreasing, so a future begin happens at or
/// after `clock`, and overlap requires `begin <= abort_clock`.
fn prune_parked(parked: &mut Vec<AbortedTx>, live: &[Option<TxLive>], clock: u64) {
    let floor = live
        .iter()
        .flatten()
        .map(|t| t.begin_clock)
        .min()
        .unwrap_or(clock)
        .min(clock);
    parked.retain(|a| a.abort_clock >= floor);
}

/// The JSON form of a summary (deterministic key order).
pub fn summary_to_json(s: &TraceSummary) -> Json {
    let causes = Json::Obj(
        s.abort_causes
            .iter()
            .map(|(k, v)| (k.clone(), Json::U64(*v)))
            .collect(),
    );
    let matrix = Json::obj(vec![
        ("plain_vs_plain", Json::U64(s.label_matrix[0])),
        ("plain_vs_labeled", Json::U64(s.label_matrix[1])),
        ("labeled_vs_plain", Json::U64(s.label_matrix[2])),
        ("labeled_vs_labeled", Json::U64(s.label_matrix[3])),
    ]);
    let incidents = Json::Arr(
        s.audit
            .iter()
            .map(|i| {
                Json::obj(vec![
                    ("committed_core", Json::U64(i.committed_core as u64)),
                    ("commit_clock", Json::U64(i.commit_clock)),
                    ("aborted_core", Json::U64(i.aborted_core as u64)),
                    ("abort_clock", Json::U64(i.abort_clock)),
                    (
                        "lines",
                        Json::Arr(i.lines.iter().map(|&l| Json::U64(l)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("begins", Json::U64(s.begins)),
        ("commits", Json::U64(s.commits)),
        ("aborts", Json::U64(s.aborts)),
        ("conflicts", Json::U64(s.conflicts)),
        ("nacks", Json::U64(s.nacks)),
        ("dropped", Json::U64(s.dropped)),
        ("abort_causes", causes),
        ("label_matrix", matrix),
        ("hot_lines", hot_lines_json(&s.hot_lines)),
        (
            "speculation_audit",
            Json::obj(vec![
                ("incidents", incidents),
                ("truncated", Json::U64(s.audit_truncated)),
            ]),
        ),
    ])
}

/// `(line, conflicts)` pairs as JSON objects.
fn hot_lines_json(lines: &[(u64, u64)]) -> Json {
    let line = |&(line, n): &(u64, u64)| {
        Json::obj(vec![("line", Json::U64(line)), ("conflicts", Json::U64(n))])
    };
    Json::Arr(lines.iter().map(line).collect())
}

/// Bytes reserved per event when pre-sizing a side-car buffer. Events
/// average about 107 compact bytes on the paper's applications; the
/// slack keeps the buffer from regrowing, and the unused tail of a large
/// allocation is never touched.
const EVENT_BYTES: usize = 128;

/// Bytes reserved for one trace header, or one side-car cell's identity
/// and summary, beyond its events.
const ENVELOPE_BYTES: usize = 4096;

/// The JSON form of a full trace: header fields plus the commit-ordered
/// event stream, one tagged object per event. A borrowed view that writes
/// the compact text straight into a buffer, with no [`Json`] tree per
/// event.
#[derive(Clone, Copy, Debug)]
pub struct TraceJson<'a>(&'a Trace);

/// The JSON form of a full trace; see [`TraceJson`].
pub fn trace_to_json(trace: &Trace) -> TraceJson<'_> {
    TraceJson(trace)
}

impl TraceJson<'_> {
    /// The compact text, as [`Json::compact`] spells it: no whitespace,
    /// plus a trailing newline.
    pub fn compact(&self) -> String {
        let mut out = String::with_capacity(self.size_hint() + 1);
        self.write_compact(&mut out);
        out.push('\n');
        out
    }

    /// Appends the compact text, without the trailing newline.
    pub fn write_compact(&self, out: &mut String) {
        let t = self.0;
        put_u64(out, "{\"threads\":", t.threads as u64);
        out.push_str(",\"scheme\":");
        write_escaped(out, &t.scheme);
        put_u64(out, ",\"seed\":", t.seed);
        put_u64(out, ",\"capacity\":", t.capacity as u64);
        put_u64(out, ",\"dropped\":", t.dropped);
        out.push_str(",\"events\":[");
        for (i, e) in t.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_event(out, e);
        }
        out.push_str("]}");
    }

    /// A generous estimate of the compact text's length.
    fn size_hint(&self) -> usize {
        ENVELOPE_BYTES + self.0.scheme.len() + EVENT_BYTES * self.0.events.len()
    }
}

/// Appends one event as a compact JSON object.
fn write_event(out: &mut String, e: &TraceEvent) {
    put_u64(out, "{\"clock\":", e.clock);
    put_u64(out, ",\"core\":", e.core as u64);
    match &e.kind {
        TraceEventKind::Begin { ts } => {
            out.push_str(",\"type\":\"begin\"");
            put_u64(out, ",\"ts\":", *ts);
        }
        TraceEventKind::Access {
            addr,
            line,
            op,
            labeled,
            demoted,
        } => {
            out.push_str(",\"type\":\"access\"");
            put_u64(out, ",\"addr\":", *addr);
            put_u64(out, ",\"line\":", *line);
            put_str(out, ",\"op\":", op.name());
            put_bool(out, ",\"labeled\":", *labeled);
            put_bool(out, ",\"demoted\":", *demoted);
        }
        TraceEventKind::Conflict {
            attacker,
            victim,
            line,
            cause,
            attacker_labeled,
            nack,
        } => {
            out.push_str(",\"type\":\"conflict\"");
            put_u64(out, ",\"attacker\":", *attacker as u64);
            put_u64(out, ",\"victim\":", *victim as u64);
            put_u64(out, ",\"line\":", *line);
            put_str(out, ",\"cause\":", cause.name());
            put_bool(out, ",\"attacker_labeled\":", *attacker_labeled);
            put_bool(out, ",\"nack\":", *nack);
        }
        TraceEventKind::Abort {
            cause,
            attacker,
            line,
        } => {
            out.push_str(",\"type\":\"abort\"");
            put_str(out, ",\"cause\":", cause.name());
            put_opt(out, ",\"attacker\":", attacker.map(|a| a as u64));
            put_opt(out, ",\"line\":", *line);
        }
        TraceEventKind::Commit => out.push_str(",\"type\":\"commit\""),
    }
    out.push('}');
}

// Each `put_*` appends `key` (the separator, the quoted name and the
// colon, spelled out by the caller) and then the value.

fn put_u64(out: &mut String, key: &str, v: u64) {
    out.push_str(key);
    write_u64(out, v);
}

fn put_opt(out: &mut String, key: &str, v: Option<u64>) {
    match v {
        Some(v) => put_u64(out, key, v),
        None => {
            out.push_str(key);
            out.push_str("null");
        }
    }
}

fn put_bool(out: &mut String, key: &str, v: bool) {
    out.push_str(key);
    out.push_str(if v { "true" } else { "false" });
}

fn put_str(out: &mut String, key: &str, v: &str) {
    out.push_str(key);
    write_escaped(out, v);
}

/// The files a traced sweep writes beside its results. Both `run --trace`
/// and [`crate::batch::emit_report`] write these; each chooses only where
/// the files go.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArtifacts {
    /// `(<name>.trace.json, content)`: every traced cell's events and
    /// [`TraceSummary`], as compact JSON matching [`TRACE_SCHEMA`].
    pub side_car: (String, String),
    /// `(<name>.aborts.svg, content)`: the abort-cause figure
    /// ([`crate::figures::abort_causes_figure`]).
    pub aborts: (String, String),
    /// The manifest's per-cell attribution: abort count and top 3 hot
    /// lines, "what was contended" without opening the side-car.
    pub attribution: Json,
}

/// The trace artifacts of a sweep; `None` when no cell carries a trace
/// (tracing was off, or every traced cell failed).
pub fn trace_artifacts(
    scenario: &Scenario,
    set: &ResultSet,
    theme: commtm_plot::palette::Theme,
) -> Option<TraceArtifacts> {
    let traced: Vec<(&Cell, &CellTrace)> = set
        .cells
        .iter()
        .filter_map(|c| Some((&c.cell, c.trace.as_ref()?)))
        .collect();
    if traced.is_empty() {
        return None;
    }
    let attribution = traced
        .iter()
        .map(|(c, t)| {
            let hot = &t.summary.hot_lines;
            Json::obj(vec![
                ("label", Json::Str(c.label.clone())),
                ("threads", Json::U64(c.threads as u64)),
                ("scheme", Json::Str(scheme_name(c.scheme).to_string())),
                ("seed", Json::U64(c.seed)),
                ("aborts", Json::U64(t.summary.aborts)),
                ("hot_lines", hot_lines_json(&hot[..hot.len().min(3)])),
            ])
        })
        .collect();
    Some(TraceArtifacts {
        side_car: (
            format!("{}.trace.json", scenario.name),
            side_car(set, &traced),
        ),
        aborts: (
            format!("{}.aborts.svg", scenario.name),
            crate::figures::abort_causes_figure(scenario, set, theme),
        ),
        attribution: Json::Arr(attribution),
    })
}

/// The side-car text: the envelope, then per cell its identity pairs,
/// the streamed `"trace"` and the compact `"summary"`, written into one
/// pre-sized buffer in the compact form with a trailing newline.
fn side_car(set: &ResultSet, traced: &[(&Cell, &CellTrace)]) -> String {
    let cells: usize = traced
        .iter()
        .map(|(_, t)| ENVELOPE_BYTES + trace_to_json(&t.trace).size_hint())
        .sum();
    let mut out = String::with_capacity(ENVELOPE_BYTES + cells);
    out.push_str(
        "{\"generator\":\"commtm-lab run --trace\",\"schema\":\"commtm-trace-v1\",\"scenario\":",
    );
    write_escaped(&mut out, &set.scenario);
    put_u64(&mut out, ",\"scale\":", set.scale);
    out.push_str(",\"cells\":[");
    for (i, (c, t)) in traced.iter().enumerate() {
        out.push_str(if i > 0 { ",{" } else { "{" });
        for (key, value) in identity_json(c) {
            write_escaped(&mut out, &key);
            out.push(':');
            value.write_compact(&mut out);
            out.push(',');
        }
        out.push_str("\"trace\":");
        trace_to_json(&t.trace).write_compact(&mut out);
        out.push_str(",\"summary\":");
        summary_to_json(&t.summary).write_compact(&mut out);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Parses `text` as a trace side-car and checks it against
/// [`TRACE_SCHEMA`]: the `commtm-lab trace-validate` gate.
///
/// # Errors
///
/// Returns the byte offset of a JSON syntax error, or the path and reason
/// of the first schema violation.
pub fn validate_side_car(text: &str) -> Result<(), String> {
    let value = json::parse(text)?;
    let schema = json::parse(TRACE_SCHEMA).expect("embedded schema parses");
    validate_schema(&schema, &value).map_err(|e| format!("schema violation: {e}"))
}

/// Validates `value` against a subset of JSON Schema — the subset
/// `docs/trace.schema.json` uses: `type` (single name or list), `enum`,
/// `required`, `properties`, `items`. Unknown keywords are ignored, as
/// JSON Schema specifies.
///
/// # Errors
///
/// Returns the path and reason of the first violation.
pub fn validate_schema(schema: &Json, value: &Json) -> Result<(), String> {
    validate_at(schema, value, "$")
}

fn validate_at(schema: &Json, value: &Json, path: &str) -> Result<(), String> {
    if let Some(expected) = schema.get("type") {
        let names: Vec<&str> = match expected {
            Json::Str(s) => vec![s.as_str()],
            Json::Arr(list) => list.iter().filter_map(Json::as_str).collect(),
            other => return Err(format!("{path}: malformed schema \"type\": {other:?}")),
        };
        if !names.iter().any(|n| type_matches(n, value)) {
            return Err(format!(
                "{path}: expected type {}, got {}",
                names.join(" | "),
                type_name(value)
            ));
        }
    }
    if let Some(Json::Arr(allowed)) = schema.get("enum") {
        if !allowed.iter().any(|a| json_eq(a, value)) {
            return Err(format!("{path}: value not in enum"));
        }
    }
    if let Some(Json::Arr(required)) = schema.get("required") {
        for key in required.iter().filter_map(Json::as_str) {
            if value.get(key).is_none() {
                return Err(format!("{path}: missing required key {key:?}"));
            }
        }
    }
    if let (Some(Json::Obj(props)), Json::Obj(fields)) = (schema.get("properties"), value) {
        for (key, sub) in props {
            if let Some((_, v)) = fields.iter().find(|(k, _)| k == key) {
                validate_at(sub, v, &format!("{path}.{key}"))?;
            }
        }
    }
    if let (Some(items), Json::Arr(elems)) = (schema.get("items"), value) {
        for (i, v) in elems.iter().enumerate() {
            validate_at(items, v, &format!("{path}[{i}]"))?;
        }
    }
    Ok(())
}

fn type_matches(name: &str, value: &Json) -> bool {
    match name {
        "object" => matches!(value, Json::Obj(_)),
        "array" => matches!(value, Json::Arr(_)),
        "string" => matches!(value, Json::Str(_)),
        "boolean" => matches!(value, Json::Bool(_)),
        "null" => matches!(value, Json::Null),
        "integer" => matches!(value, Json::U64(_) | Json::I64(_)),
        "number" => matches!(value, Json::U64(_) | Json::I64(_) | Json::F64(_)),
        _ => false,
    }
}

fn type_name(value: &Json) -> &'static str {
    match value {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::U64(_) | Json::I64(_) => "integer",
        Json::F64(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn json_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Str(x), Json::Str(y)) => x == y,
        (Json::Bool(x), Json::Bool(y)) => x == y,
        (Json::Null, Json::Null) => true,
        _ => a.as_f64().zip(b.as_f64()).is_some_and(|(x, y)| x == y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::{AbortKind, AccessOp, TraceEvent};

    fn ev(clock: u64, core: usize, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { clock, core, kind }
    }

    fn access(line: u64, op: AccessOp) -> TraceEventKind {
        TraceEventKind::Access {
            addr: line * 8,
            line,
            op,
            labeled: false,
            demoted: false,
        }
    }

    fn sample_trace(events: Vec<TraceEvent>) -> Trace {
        Trace {
            threads: 2,
            scheme: "commtm".into(),
            seed: 1,
            capacity: 1 << 16,
            dropped: 0,
            events,
        }
    }

    #[test]
    fn summary_counts_causes_matrix_and_hot_lines() {
        let t = sample_trace(vec![
            ev(0, 0, TraceEventKind::Begin { ts: 1 }),
            ev(1, 1, TraceEventKind::Begin { ts: 2 }),
            ev(2, 0, access(7, AccessOp::Store)),
            ev(
                3,
                1,
                TraceEventKind::Conflict {
                    attacker: 1,
                    victim: 0,
                    line: 7,
                    cause: AbortKind::ReadAfterWrite,
                    attacker_labeled: false,
                    nack: false,
                },
            ),
            ev(
                4,
                0,
                TraceEventKind::Abort {
                    cause: AbortKind::ReadAfterWrite,
                    attacker: Some(1),
                    line: Some(7),
                },
            ),
            ev(
                5,
                1,
                TraceEventKind::Conflict {
                    attacker: 1,
                    victim: 0,
                    line: 7,
                    cause: AbortKind::CrossLabel,
                    attacker_labeled: true,
                    nack: true,
                },
            ),
            ev(6, 1, TraceEventKind::Commit),
        ]);
        let s = summarize_trace(&t);
        assert_eq!((s.begins, s.commits, s.aborts), (2, 1, 1));
        assert_eq!((s.conflicts, s.nacks), (2, 1));
        assert_eq!(s.abort_causes.get("read-after-write"), Some(&1));
        assert_eq!(s.label_matrix, [1, 0, 0, 1]);
        assert_eq!(s.hot_lines, vec![(7, 2)]);
    }

    #[test]
    fn audit_flags_commit_overlapping_concurrent_aborted_writes() {
        // Core 0 speculatively writes line 9 and aborts; core 1's
        // transaction overlaps in time, reads line 9, and commits.
        let t = sample_trace(vec![
            ev(0, 0, TraceEventKind::Begin { ts: 1 }),
            ev(0, 1, TraceEventKind::Begin { ts: 2 }),
            ev(1, 0, access(9, AccessOp::Store)),
            ev(2, 1, access(9, AccessOp::Load)),
            ev(
                3,
                0,
                TraceEventKind::Abort {
                    cause: AbortKind::WriteAfterRead,
                    attacker: Some(1),
                    line: Some(9),
                },
            ),
            ev(4, 1, TraceEventKind::Commit),
        ]);
        let s = summarize_trace(&t);
        assert_eq!(s.audit.len(), 1);
        let i = &s.audit[0];
        assert_eq!((i.committed_core, i.aborted_core), (1, 0));
        assert_eq!(i.lines, vec![9]);
        assert_eq!(s.audit_truncated, 0);
    }

    #[test]
    fn audit_ignores_disjoint_or_non_overlapping_transactions() {
        // The aborted write happens on a different line, and a second
        // committed transaction begins only after the abort resolved.
        let t = sample_trace(vec![
            ev(0, 0, TraceEventKind::Begin { ts: 1 }),
            ev(0, 1, TraceEventKind::Begin { ts: 2 }),
            ev(1, 0, access(3, AccessOp::Store)),
            ev(2, 1, access(9, AccessOp::Load)),
            ev(
                3,
                0,
                TraceEventKind::Abort {
                    cause: AbortKind::Eviction,
                    attacker: None,
                    line: Some(3),
                },
            ),
            ev(4, 1, TraceEventKind::Commit),
            // Begins strictly after the abort: no temporal overlap.
            ev(5, 1, TraceEventKind::Begin { ts: 3 }),
            ev(6, 1, access(3, AccessOp::Load)),
            ev(7, 1, TraceEventKind::Commit),
        ]);
        let s = summarize_trace(&t);
        assert!(s.audit.is_empty(), "{:?}", s.audit);
    }

    /// The committed schema's per-cell subschema for `key`.
    fn cell_subschema(key: &str) -> Json {
        let schema = crate::json::parse(TRACE_SCHEMA).expect("schema parses");
        schema
            .get("properties")
            .and_then(|p| p.get("cells"))
            .and_then(|c| c.get("items"))
            .and_then(|i| i.get("properties"))
            .and_then(|p| p.get(key))
            .cloned()
            .unwrap_or_else(|| panic!("{key} subschema present"))
    }

    #[test]
    fn summary_json_has_audit_section_and_validates() {
        let t = sample_trace(vec![
            ev(0, 0, TraceEventKind::Begin { ts: 1 }),
            ev(1, 0, access(2, AccessOp::StoreL)),
            ev(2, 0, TraceEventKind::Commit),
        ]);
        let s = summarize_trace(&t);
        let summary = crate::json::parse(&summary_to_json(&s).compact()).expect("summary parses");
        assert!(summary.get("speculation_audit").is_some());
        assert_eq!(summary.get("begins").and_then(Json::as_u64), Some(1));
        let text = trace_to_json(&t).compact();
        let tj = crate::json::parse(&text).expect("emitted trace parses");
        assert_eq!(
            tj.compact(),
            text,
            "the emitted bytes are canonical compact JSON"
        );
        assert_eq!(
            tj.get("events").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        // The committed schema's subschemas accept the emitted form.
        validate_schema(&cell_subschema("trace"), &tj).expect("trace JSON matches schema");
        validate_schema(&cell_subschema("summary"), &summary).expect("summary JSON matches schema");
    }

    #[test]
    fn trace_schema_accepts_headers_with_and_without_the_old_engine_keys() {
        let trace_schema = cell_subschema("trace");
        let header =
            r#""threads":2,"scheme":"commtm","seed":1,"capacity":65536,"dropped":0,"events":[]"#;
        let current = crate::json::parse(&format!("{{{header}}}")).unwrap();
        let older = crate::json::parse(&format!(
            r#"{{"engine":"serial","machine_threads":1,{header}}}"#
        ))
        .unwrap();
        validate_schema(&trace_schema, &current).expect("current header validates");
        validate_schema(&trace_schema, &older).expect("older side-car header validates");
        // The emitted header is the current one, byte for byte.
        let text = trace_to_json(&sample_trace(vec![])).compact();
        let emitted = crate::json::parse(&text).expect("emitted header parses");
        assert!(emitted.get("engine").is_none());
        assert!(emitted.get("machine_threads").is_none());
        assert_eq!(text, current.compact());
    }

    #[test]
    fn every_event_kind_streams_as_its_tagged_object() {
        let t = Trace {
            scheme: "a\"b".into(),
            ..sample_trace(vec![
                ev(0, 0, TraceEventKind::Begin { ts: 7 }),
                ev(
                    1,
                    0,
                    TraceEventKind::Access {
                        addr: 80,
                        line: 10,
                        op: AccessOp::StoreL,
                        labeled: true,
                        demoted: false,
                    },
                ),
                ev(
                    2,
                    1,
                    TraceEventKind::Conflict {
                        attacker: 1,
                        victim: 0,
                        line: 10,
                        cause: AbortKind::GatherAfterLabeled,
                        attacker_labeled: false,
                        nack: true,
                    },
                ),
                ev(
                    3,
                    0,
                    TraceEventKind::Abort {
                        cause: AbortKind::SelfDemote,
                        attacker: None,
                        line: None,
                    },
                ),
                ev(
                    4,
                    1,
                    TraceEventKind::Abort {
                        cause: AbortKind::CrossLabel,
                        attacker: Some(0),
                        line: Some(u64::MAX),
                    },
                ),
                ev(5, 1, TraceEventKind::Commit),
            ])
        };
        assert_eq!(
            trace_to_json(&t).compact(),
            concat!(
                r#"{"threads":2,"scheme":"a\"b","seed":1,"capacity":65536,"dropped":0,"events":["#,
                r#"{"clock":0,"core":0,"type":"begin","ts":7},"#,
                r#"{"clock":1,"core":0,"type":"access","addr":80,"line":10,"op":"storel","#,
                r#""labeled":true,"demoted":false},"#,
                r#"{"clock":2,"core":1,"type":"conflict","attacker":1,"victim":0,"line":10,"#,
                r#""cause":"gather-after-labeled","attacker_labeled":false,"nack":true},"#,
                r#"{"clock":3,"core":0,"type":"abort","cause":"self-demote","attacker":null,"#,
                r#""line":null},"#,
                r#"{"clock":4,"core":1,"type":"abort","cause":"cross-label","attacker":0,"#,
                r#""line":18446744073709551615},"#,
                r#"{"clock":5,"core":1,"type":"commit"}]}"#,
                "\n"
            )
        );
    }

    #[test]
    fn summary_tracks_cores_beyond_the_header_thread_count() {
        // A trace whose header undercounts its cores still attributes
        // every event to its own core's transaction.
        let t = Trace {
            threads: 1,
            ..sample_trace(vec![
                ev(0, 3, TraceEventKind::Begin { ts: 1 }),
                ev(1, 3, access(4, AccessOp::Load)),
                ev(2, 3, TraceEventKind::Commit),
            ])
        };
        let s = summarize_trace(&t);
        assert_eq!((s.begins, s.commits), (1, 1));
    }

    #[test]
    fn validator_reports_type_and_required_violations() {
        let schema = crate::json::parse(
            r#"{"type":"object","required":["a"],"properties":{"a":{"type":"integer"},
                "b":{"type":"array","items":{"type":"string"}}}}"#,
        )
        .unwrap();
        assert!(validate_schema(&schema, &crate::json::parse(r#"{"a":1}"#).unwrap()).is_ok());
        let missing = validate_schema(&schema, &crate::json::parse(r#"{"b":[]}"#).unwrap());
        assert!(missing.unwrap_err().contains("missing required key"));
        let wrong = validate_schema(
            &schema,
            &crate::json::parse(r#"{"a":1,"b":["x",2]}"#).unwrap(),
        );
        assert!(wrong.unwrap_err().contains("$.b[1]"));
    }
}
