//! Rendering result sets in the style of the paper's figures.
//!
//! Each [`ReportKind`] maps a [`ResultSet`] to the same tables and
//! qualitative shape checks the original per-figure benchmarks printed;
//! `commtm-lab run figNN` prints them. The tables print, and the checks
//! read, the [`Plot`] that [`ResultSet::plot`] computes — the one the
//! figure draws — so a point the figure leaves out prints as `-`.

use std::fmt::Write as _;

use commtm::Scheme;

use crate::results::{waste_bucket_name, Plot, Point, ResultSet, Summary};
use crate::spec::{scheme_name, ReportKind, Scenario, SpeedupCheck};

/// Renders `set` according to the scenario's report kind: the numbers of
/// the [`Plot`] the figure draws, and shape checks over them.
pub fn render(scenario: &Scenario, set: &ResultSet) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {}: {}", set.scenario, set.title);
    if !scenario.claim.is_empty() {
        let _ = writeln!(out, "    paper: {}", scenario.claim);
    }
    let threads = set.thread_counts();
    let _ = writeln!(
        out,
        "    (threads {:?}, scale {}, seeds {}, jobs {}, wall {} ms)",
        threads,
        set.scale,
        scenario.seeds.len(),
        set.jobs,
        set.wall_ms
    );
    let plot = set.plot(scenario.report);
    match scenario.report {
        ReportKind::Speedup => render_speedup(scenario, &threads, &set.schemes(), &plot, &mut out),
        ReportKind::Table2 => render_table2(set, &plot, &mut out),
        kind => render_bars(kind, &threads, &plot, &mut out),
    }
    let failures: Vec<String> = set
        .cells
        .iter()
        .filter(|c| c.stats.is_none())
        .map(|c| {
            format!(
                "    FAILED {}: {}",
                c.key(),
                c.error
                    .as_deref()
                    .unwrap_or("unknown")
                    .lines()
                    .next()
                    .unwrap_or("?")
            )
        })
        .collect();
    if !failures.is_empty() {
        let _ = writeln!(out, "    {} cell(s) failed:", failures.len());
        for f in failures {
            let _ = writeln!(out, "{f}");
        }
    }
    out
}

/// Emits a PASS/NOTE line for a qualitative shape check (the original
/// harness's convention: a miss at reduced scale is a note, not an error).
fn shape_check(out: &mut String, name: &str, ok: bool, detail: String) {
    if ok {
        let _ = writeln!(out, "    shape-check PASS: {name} ({detail})");
    } else {
        let _ = writeln!(
            out,
            "    shape-check NOTE: {name} NOT met at this scale ({detail})"
        );
    }
}

fn render_speedup(
    scenario: &Scenario,
    threads: &[usize],
    schemes: &[Scheme],
    plot: &Plot,
    out: &mut String,
) {
    let speedup = |label: &str, t, scheme| plot.at(label, t, scheme).map(|p| p.values[0].mean);
    let peak = |label: &str, scheme| {
        let points = threads.iter().filter_map(|&t| speedup(label, t, scheme));
        points.reduce(f64::max)
    };
    for (label, points) in &plot.labels {
        if points.is_none() {
            let _ = writeln!(out, "--- {label}: missing serial reference point");
            continue;
        }
        let _ = writeln!(out, "--- {label}");
        let _ = write!(out, "{:>8}", "threads");
        for &s in schemes {
            let _ = write!(out, "{:>18}", scheme_name(s));
        }
        let _ = writeln!(out);
        for &t in threads {
            let _ = write!(out, "{t:>8}");
            for &s in schemes {
                let _ = match speedup(label, t, s) {
                    Some(speedup) => write!(out, "{speedup:>18.2}"),
                    None => write!(out, "{:>18}", "-"),
                };
            }
            let _ = writeln!(out);
        }
        if scenario.speedup_checks.is_empty() {
            // Both peaks must exist; a scheme-restricted variant has no
            // baseline series to compare against.
            if let (Some(c), Some(b)) = (peak(label, Scheme::CommTm), peak(label, Scheme::Baseline))
            {
                shape_check(
                    out,
                    &format!("{label}: CommTM peak >= baseline peak"),
                    c >= 0.95 * b,
                    format!("{c:.1}x vs {b:.1}x"),
                );
            }
        }
    }
    let max_t = threads.iter().copied().max().unwrap_or(1) as f64;
    for check in &scenario.speedup_checks {
        render_speedup_check(check, max_t, peak, out);
    }
}

/// Evaluates one figure-specific quantitative check against the peaks.
fn render_speedup_check(
    check: &SpeedupCheck,
    max_t: f64,
    peak: impl Fn(&str, Scheme) -> Option<f64>,
    out: &mut String,
) {
    let commtm = |label: &str| peak(label, Scheme::CommTm);
    let baseline = |label: &str| peak(label, Scheme::Baseline);
    let (name, ok, detail) = match check {
        SpeedupCheck::NearLinear { label, frac } => {
            let Some(c) = commtm(label) else { return };
            let need = frac * max_t;
            let detail = format!("{c:.1}x of {max_t:.0} threads (need > {need:.1}x)");
            (
                format!("{label}: CommTM scales near-linearly"),
                c > need,
                detail,
            )
        }
        SpeedupCheck::BaselineBelow { label, bound } => {
            let Some(b) = baseline(label) else { return };
            let detail = format!("{b:.1}x (need < {bound:.1}x)");
            (format!("{label}: baseline serializes"), b < *bound, detail)
        }
        SpeedupCheck::BaselineAbove { label, bound } => {
            let Some(b) = baseline(label) else { return };
            let detail = format!("{b:.1}x (need > {bound:.1}x)");
            (format!("{label}: baseline also scales"), b > *bound, detail)
        }
        SpeedupCheck::BeatsBaseline { label, factor } => {
            let (Some(c), Some(b)) = (commtm(label), baseline(label)) else {
                return;
            };
            let name = format!("{label}: CommTM beats baseline by {factor:.1}x");
            (name, c > factor * b, format!("{c:.1}x vs {b:.1}x"))
        }
        SpeedupCheck::FasterThan { faster, slower } => {
            let (Some(f), Some(s)) = (commtm(faster), commtm(slower)) else {
                return;
            };
            let name = format!("{faster} >= {slower} under CommTM");
            (name, f >= s, format!("{f:.1}x vs {s:.1}x"))
        }
    };
    shape_check(out, &name, ok, detail);
}

/// The cycle, wasted-cycle and GET breakdowns (Figs. 17–19): one row per
/// bar. A bar whose normalization reference failed prints `-`, as the
/// figure leaves it out.
fn render_bars(kind: ReportKind, threads: &[usize], plot: &Plot, out: &mut String) {
    let reference = &plot.reference;
    let (columns, width, total_column): (Vec<&str>, usize, bool) = match kind {
        ReportKind::CycleBreakdown => (vec!["nontx", "committed", "aborted"], 12, true),
        ReportKind::WastedBreakdown => ((0..4).map(waste_bucket_name).collect(), 10, false),
        _ => (vec!["GETS", "GETX", "GETU"], 10, true),
    };
    let _ = write!(out, "{:>22} {:>8} {:>9} |", "workload", "threads", "scheme");
    for c in &columns {
        let _ = write!(out, " {c:>width$}");
    }
    let _ = if total_column {
        writeln!(out, " | total (normalized to {reference})")
    } else {
        writeln!(out, " (normalized to {reference} total)")
    };
    let max_t = threads.iter().copied().max().unwrap_or(0);
    for (label, points) in &plot.labels {
        for p in points.iter().flatten() {
            // Segments, then the total; `-` for a bar with no reference.
            let values: Vec<String> = match p.normalized() {
                Some(values) => values.iter().map(|v| format!("{:.3}", v.mean)).collect(),
                None => vec!["-".to_string(); p.values.len()],
            };
            let Some((total, segments)) = values.split_last() else {
                continue;
            };
            let _ = write!(
                out,
                "{:>22} {:>8} {:>9} |",
                label,
                p.threads,
                scheme_name(p.scheme)
            );
            for v in segments {
                let _ = write!(out, " {v:>width$}");
            }
            let _ = if total_column {
                writeln!(out, " | {total}")
            } else {
                writeln!(out)
            };
        }
        let at_max = |scheme| plot.at(label, max_t, scheme).map(|p| &p.values);
        let (Some(b), Some(c)) = (at_max(Scheme::Baseline), at_max(Scheme::CommTm)) else {
            continue;
        };
        // Raw counts: the aborted-cycles segment, or the total after the
        // three GET segments.
        let (claim, b, c, unit) = match kind {
            ReportKind::CycleBreakdown => (
                "wastes fewer cycles",
                b[2].mean,
                c[2].mean,
                " aborted cycles",
            ),
            ReportKind::GetsBreakdown => ("issues fewer GETs", b[3].mean, c[3].mean, ""),
            _ => continue,
        };
        shape_check(
            out,
            &format!("{label}: CommTM {claim}"),
            c <= b,
            format!("{c:.0} vs {b:.0}{unit} at {max_t} threads"),
        );
    }
}

/// Table II: one row per label, the numbers the HTML table shows (counts
/// print whole at one seed; the HTML table adds the spread).
fn render_table2(set: &ResultSet, plot: &Plot, out: &mut String) {
    let _ = writeln!(
        out,
        "{:>22} | {:>10} {:>10} {:>10} {:>10} {:>12}",
        "workload", "commits", "aborts", "gathers", "reductions", "labeled-frac"
    );
    let count = |s: &Summary| {
        if s.n > 1 {
            format!("{:.1}", s.mean)
        } else {
            format!("{:.0}", s.mean)
        }
    };
    let row =
        |points: &Option<Vec<Point>>| points.iter().flatten().next().map(|p| p.values.clone());
    for (label, points) in &plot.labels {
        let _ = match row(points).as_deref() {
            Some([commits, aborts, gathers, reductions, labeled]) => writeln!(
                out,
                "{:>22} | {:>10} {:>10} {:>10} {:>10} {:>11.2}%",
                label,
                count(commits),
                count(aborts),
                count(gathers),
                count(reductions),
                labeled.mean,
            ),
            _ => writeln!(out, "{label:>22} | failed"),
        };
    }
    // The paper's Sec. VII point: labels annotate a small minority of
    // operations. Micros label their whole hot loop, so the bound only
    // applies to the full applications.
    for (label, points) in &plot.labels {
        let app = set
            .cells
            .iter()
            .find(|c| c.cell.label == *label)
            .and_then(|c| crate::registry::resolve(&c.cell.workload))
            .is_some_and(|d| d.kind() == commtm_workloads::WorkloadKind::App);
        let (true, Some(values)) = (app, row(points)) else {
            continue;
        };
        let percent = values[4].mean;
        shape_check(
            out,
            &format!("{label}: labeled ops are a minority"),
            percent < 50.0,
            format!("{percent:.1}% labeled"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_scenario, ExecOptions};
    use crate::spec::WorkloadSpec;

    #[test]
    fn speedup_report_renders_series_and_checks() {
        let scn = Scenario::new("r", "render test")
            .claim("test claim")
            .workload(WorkloadSpec::named("counter").param("total_incs", 200))
            .threads(&[1, 4]);
        let set = run_scenario(&scn, &ExecOptions::default()).unwrap();
        let text = render(&scn, &set);
        assert!(text.contains("=== r: render test"));
        assert!(text.contains("paper: test claim"));
        assert!(text.contains("baseline"));
        assert!(text.contains("commtm"));
        assert!(
            text.contains("shape-check"),
            "speedup report emits a shape check:\n{text}"
        );
    }

    #[test]
    fn table2_report_lists_labeled_fractions() {
        let scn = Scenario::new("t2", "chars")
            .workload(WorkloadSpec::named("counter").param("total_incs", 200))
            .threads(&[2])
            .schemes(&[Scheme::CommTm])
            .report(ReportKind::Table2);
        let set = run_scenario(&scn, &ExecOptions::default()).unwrap();
        let text = render(&scn, &set);
        assert!(text.contains("labeled-frac"));
        assert!(text.contains('%'));
    }
}
