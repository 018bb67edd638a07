//! Figure rendering: turning a [`ResultSet`] into the paper's charts.
//!
//! Where [`crate::report`] renders text tables with shape checks, this
//! module renders the actual figures as SVG (via [`commtm_plot`]) and
//! Table II as an HTML table:
//!
//! - [`ReportKind::Speedup`] → a line chart of speedup vs threads, one
//!   series per workload label × scheme (color follows the label, dash
//!   pattern follows the scheme, as Figs. 9–16),
//! - [`ReportKind::CycleBreakdown`] / [`ReportKind::WastedBreakdown`] /
//!   [`ReportKind::GetsBreakdown`] → grouped stacked bars (Figs. 17–19),
//! - [`ReportKind::Table2`] → an HTML characteristics table.
//!
//! Every chart draws the one [`Plot`] that [`ResultSet::plot`] computes,
//! the same one the text report prints and checks. Whenever the scenario
//! sweeps ≥ 2 seeds, every point/stack carries a mean ± sample-stddev
//! error bar; single-seed sweeps draw none (spread 0). Failed cells
//! simply leave gaps — a missing point is honest, a fabricated one is
//! not.

use std::fmt::Write as _;

use commtm::Scheme;
use commtm_plot::{palette, Bar, BarChart, BarGroup, LineChart, Series};

use crate::results::{waste_bucket_name, Plot, Point, ResultSet, Summary};
use crate::spec::{scheme_name, Cell, ReportKind, Scenario};
use crate::trace::TraceSummary;

/// Looks a figure color theme up by CLI name (`"light"` / `"dark"`).
pub fn theme_by_name(name: &str) -> Option<palette::Theme> {
    palette::Theme::by_name(name)
}

/// The artifact file name for a scenario's figure (`<name>.svg`, or
/// `<name>.html` for the Table II style).
pub fn figure_file_name(scenario: &Scenario) -> String {
    match scenario.report {
        ReportKind::Table2 => format!("{}.html", scenario.name),
        _ => format!("{}.svg", scenario.name),
    }
}

/// Renders the scenario's figure from its results under the default
/// light theme. The text is SVG for every chart kind and a standalone
/// HTML document for [`ReportKind::Table2`] (see [`figure_file_name`]).
pub fn render_figure(scenario: &Scenario, set: &ResultSet) -> String {
    render_figure_themed(scenario, set, palette::Theme::light())
}

/// [`render_figure`] under an explicit color [`palette::Theme`] (the
/// `commtm-lab run --theme dark` path).
pub fn render_figure_themed(scenario: &Scenario, set: &ResultSet, theme: palette::Theme) -> String {
    let plot = set.plot(scenario.report);
    match scenario.report {
        ReportKind::Speedup => speedup_chart(scenario, set, theme, &plot),
        ReportKind::Table2 => table2_html(scenario, set, theme, &plot),
        _ => bar_chart(scenario, set, theme, &plot),
    }
}

/// The shared subtitle: scenario identity plus what the error bars mean.
fn subtitle(scenario: &Scenario, set: &ResultSet) -> String {
    let seeds = scenario.seeds.len();
    let spread = if seeds >= 2 {
        format!(" · mean ± stddev over {seeds} seeds")
    } else {
        String::new()
    };
    format!("scenario {} · scale {}{spread}", set.scenario, set.scale)
}

/// Speedup vs threads (Figs. 9–16): each point is the mean ± spread of
/// the per-seed speedups, so the error bar reflects the spread of the
/// measured runs themselves.
fn speedup_chart(
    scenario: &Scenario,
    set: &ResultSet,
    theme: palette::Theme,
    plot: &Plot,
) -> String {
    let mut chart = LineChart::new(&format!("{}: {}", set.scenario, set.title))
        .theme(theme)
        .subtitle(&subtitle(scenario, set))
        .x_label("threads")
        .y_label("speedup over serial")
        .log2_x(true);
    let schemes = set.schemes();
    for (li, (label, points)) in plot.labels.iter().enumerate() {
        for &scheme in &schemes {
            let curve: Vec<&Point> = points
                .iter()
                .flatten()
                .filter(|p| p.scheme == scheme)
                .collect();
            if curve.is_empty() {
                continue;
            }
            // Color follows the workload label (the entity, one palette
            // slot per label); the scheme rides on the dash pattern, so a
            // label's baseline and CommTM curves read as one family.
            let mut series = Series::new(&series_name(label, scheme, &schemes)).slot(li);
            if scheme == Scheme::Baseline && schemes.len() > 1 {
                series = series.dashed("5 4");
            }
            for p in curve {
                let s = p.values[0];
                series = series.point_err(p.threads as f64, s.mean, s.stddev);
            }
            chart = chart.series(series);
        }
    }
    chart.render()
}

/// The legend name for one (label, scheme) series.
fn series_name(label: &str, scheme: Scheme, schemes: &[Scheme]) -> String {
    if schemes.len() > 1 {
        format!("{label} ({})", scheme_name(scheme))
    } else {
        label.to_string()
    }
}

/// Figs. 17–19: one group per workload, one stacked bar per (scheme,
/// threads) point. A bar whose normalization reference failed is left
/// out — a gap, never raw counts on a normalized axis.
fn bar_chart(scenario: &Scenario, set: &ResultSet, theme: palette::Theme, plot: &Plot) -> String {
    let (segments, what): (Vec<&str>, &str) = match scenario.report {
        ReportKind::CycleBreakdown => (vec!["non-tx", "committed", "aborted"], "cycles"),
        ReportKind::WastedBreakdown => ((0..4).map(waste_bucket_name).collect(), "wasted cycles"),
        _ => (vec!["GETS", "GETX", "GETU"], "directory GETs"),
    };
    let mut chart = BarChart::new(&format!("{}: {}", set.scenario, set.title), &segments)
        .theme(theme)
        .subtitle(&subtitle(scenario, set))
        .y_label(&format!("{what} (normalized to {})", plot.reference));
    for (label, points) in &plot.labels {
        let mut group = BarGroup::new(label);
        for p in points.iter().flatten() {
            let Some(values) = p.normalized() else {
                continue;
            };
            let Some((total, segments)) = values.split_last() else {
                continue;
            };
            group = group.bar(Bar::new(
                &format!("{}@{}", scheme_name(p.scheme), p.threads),
                segments.iter().map(|s| s.mean).collect(),
                total.stddev,
            ));
        }
        if !group.bars.is_empty() {
            chart = chart.group(group);
        }
    }
    chart.render()
}

/// Table II as a standalone HTML document: per-workload characteristics,
/// with a ± column whenever more than one seed was swept.
fn table2_html(scenario: &Scenario, set: &ResultSet, theme: palette::Theme, plot: &Plot) -> String {
    let multi_seed = scenario.seeds.len() >= 2;
    let cell = |s: &Summary| -> String {
        if multi_seed && s.stddev > 0.0 {
            format!("{:.1} ± {:.1}", s.mean, s.stddev)
        } else {
            format!("{:.1}", s.mean)
        }
    };
    let mut html_rows = String::new();
    for (label, points) in &plot.labels {
        let label = commtm_plot::svg::esc(label);
        let _ = match points.iter().flatten().next().map(|p| &p.values[..]) {
            Some([commits, aborts, gathers, reductions, labeled]) => writeln!(
                html_rows,
                "<tr><td>{label}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}%</td></tr>",
                cell(commits),
                cell(aborts),
                cell(gathers),
                cell(reductions),
                cell(labeled),
            ),
            _ => writeln!(
                html_rows,
                "<tr><td>{label}</td><td colspan=\"5\" class=\"err\">failed</td></tr>"
            ),
        };
    }
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>{title}</title>\n<style>\n\
         body {{ font-family: {font}; background: {surface}; color: {ink}; margin: 2rem; }}\n\
         h1 {{ font-size: 1.1rem; }}\n\
         p.sub {{ color: {sub}; font-size: 0.85rem; }}\n\
         table {{ border-collapse: collapse; font-variant-numeric: tabular-nums; }}\n\
         th, td {{ text-align: right; padding: 0.35rem 0.9rem; \
         border-bottom: 1px solid {grid}; font-size: 0.9rem; }}\n\
         th {{ color: {sub}; font-weight: 600; }}\n\
         td:first-child, th:first-child {{ text-align: left; }}\n\
         td.err {{ color: #d03b3b; text-align: left; }}\n\
         </style></head><body>\n<h1>{title}</h1>\n<p class=\"sub\">{sub_line}</p>\n\
         <table>\n<thead><tr><th>workload</th><th>commits</th><th>aborts</th>\
         <th>gathers</th><th>reductions</th><th>labeled ops</th></tr></thead>\n\
         <tbody>\n{rows}</tbody>\n</table>\n</body></html>\n",
        title = commtm_plot::svg::esc(&format!("{}: {}", set.scenario, set.title)),
        sub_line = commtm_plot::svg::esc(&subtitle(scenario, set)),
        font = palette::FONT,
        surface = theme.surface,
        ink = theme.ink,
        sub = theme.ink_secondary,
        grid = theme.grid,
        rows = html_rows,
    )
}

/// Renders the abort-cause breakdown for a traced sweep: one group per
/// workload label, one stacked bar per (scheme, threads) point, one
/// segment per abort cause observed anywhere in the sweep (causes use the
/// stable `AbortKind::name` spellings). Counts are summed over seed
/// replicas — this is an attribution census, not a normalized comparison.
/// It reads each cell's stored [`crate::trace::CellTrace`] summary; a
/// sweep without traces renders empty bars.
pub fn abort_causes_figure(scenario: &Scenario, set: &ResultSet, theme: palette::Theme) -> String {
    let summaries: Vec<(&Cell, &TraceSummary)> = set
        .cells
        .iter()
        .filter_map(|c| Some((&c.cell, &c.trace.as_ref()?.summary)))
        .collect();
    // The segment list is the union of observed causes, in first-seen
    // order over the deterministic cell order.
    let mut causes: Vec<String> = Vec::new();
    for (_, s) in &summaries {
        for k in s.abort_causes.keys() {
            if !causes.contains(k) {
                causes.push(k.clone());
            }
        }
    }
    if causes.is_empty() {
        // A run with zero aborts still renders (empty bars beat a missing
        // artifact in a pipeline that expects one).
        causes.push("none".to_string());
    }
    let segments: Vec<&str> = causes.iter().map(String::as_str).collect();
    let mut chart = BarChart::new(&format!("{}: abort causes", set.scenario), &segments)
        .theme(theme)
        .subtitle(&subtitle(scenario, set))
        .y_label("aborts by attributed cause (sum over seeds)");
    for label in set.labels() {
        let mut group = BarGroup::new(label);
        for &t in &set.thread_counts() {
            for &scheme in &set.schemes() {
                let point: Vec<&TraceSummary> = summaries
                    .iter()
                    .filter(|(c, _)| c.label == label && c.threads == t && c.scheme == scheme)
                    .map(|(_, s)| *s)
                    .collect();
                if point.is_empty() {
                    continue;
                }
                let count = |name| {
                    point
                        .iter()
                        .filter_map(|s| s.abort_causes.get(name))
                        .sum::<u64>()
                };
                let values = causes.iter().map(|name| count(name) as f64);
                let bar = format!("{}@{t}", scheme_name(scheme));
                group = group.bar(Bar::new(&bar, values.collect(), 0.0));
            }
        }
        if !group.bars.is_empty() {
            chart = chart.group(group);
        }
    }
    chart.render()
}

/// Renders the `run --all` report index: one HTML page linking every
/// figure and results file listed in the manifest (the `manifest.json`
/// document `commtm-lab run --all` writes). SVG figures embed inline via
/// `<img>`; the Table II HTML report links through. Deterministic — the
/// page is a pure function of the manifest.
pub fn render_index(manifest: &crate::json::Json) -> String {
    use crate::json::Json;
    let esc = commtm_plot::svg::esc;
    let mut sections = String::new();
    let figures = manifest
        .get("figures")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for entry in figures {
        let s = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("?");
        let u = |k: &str| entry.get(k).and_then(Json::as_u64).unwrap_or(0);
        let ok = entry.get("ok").and_then(Json::as_bool).unwrap_or(false);
        let figure = s("figure");
        let media = if figure.ends_with(".svg") {
            format!(
                "<a href=\"{0}\"><img src=\"{0}\" alt=\"{1}\"></a>",
                esc(figure),
                esc(s("title"))
            )
        } else {
            format!("<p><a href=\"{0}\">open {0}</a></p>", esc(figure))
        };
        // Trace artifacts only exist for traced runs (`--all --trace`).
        let mut trace_links = String::new();
        if let Some(aborts) = entry.get("aborts_figure").and_then(Json::as_str) {
            let _ = write!(
                trace_links,
                " · <a href=\"{0}\">abort causes</a>",
                esc(aborts)
            );
        }
        if let Some(trace) = entry.get("trace").and_then(Json::as_str) {
            let _ = write!(trace_links, " · <a href=\"{0}\">trace</a>", esc(trace));
        }
        // Failed cells render as gaps in the figure; name them here so
        // the report says *which* points are missing, not just that some
        // are (batch runs record the list in the manifest).
        let mut failed_list = String::new();
        if let Some(failed) = entry.get("failed").and_then(Json::as_arr) {
            if !failed.is_empty() {
                failed_list.push_str("<ul class=\"failed-cells\">\n");
                for cell in failed {
                    let _ = writeln!(
                        failed_list,
                        "<li>{}</li>",
                        esc(cell.as_str().unwrap_or("?"))
                    );
                }
                failed_list.push_str("</ul>\n");
            }
        }
        let _ = writeln!(
            sections,
            "<section{warn}>\n<h2>{name}: {title}</h2>\n{media}\n\
             <p class=\"sub\">{report} report · {cells} cells · scale {scale} · \
             {seeds} seed(s){flag} · <a href=\"{results}\">results JSON</a>\
             {trace_links}</p>\n{failed_list}</section>",
            warn = if ok { "" } else { " class=\"failed\"" },
            name = esc(s("name")),
            title = esc(s("title")),
            media = media,
            report = esc(s("report")),
            cells = u("cells"),
            scale = u("scale"),
            seeds = u("seeds"),
            flag = if ok { "" } else { " · SOME CELLS FAILED" },
            results = esc(s("results")),
        );
    }
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>commtm-lab report</title>\n<style>\n\
         body {{ font-family: {font}; background: {surface}; color: {ink}; \
         margin: 2rem auto; max-width: 72rem; padding: 0 1rem; }}\n\
         h1 {{ font-size: 1.2rem; }}\n\
         h2 {{ font-size: 1rem; margin-bottom: 0.4rem; }}\n\
         p.sub {{ color: {sub}; font-size: 0.85rem; }}\n\
         section {{ margin: 2rem 0; border-bottom: 1px solid {grid}; \
         padding-bottom: 1rem; }}\n\
         section.failed h2::after {{ content: \" ⚠\"; color: #d03b3b; }}\n\
         ul.failed-cells {{ color: #d03b3b; font-size: 0.85rem; }}\n\
         img {{ max-width: 100%; height: auto; }}\n\
         a {{ color: inherit; }}\n\
         </style></head><body>\n<h1>commtm-lab report</h1>\n\
         <p class=\"sub\">generated by {generator} · {count} figure(s) · \
         see <a href=\"manifest.json\">manifest.json</a></p>\n\
         {sections}</body></html>\n",
        font = palette::FONT,
        surface = palette::SURFACE,
        ink = palette::INK,
        sub = palette::INK_SECONDARY,
        grid = palette::GRID,
        generator = esc(manifest
            .get("generator")
            .and_then(Json::as_str)
            .unwrap_or("commtm-lab")),
        count = figures.len(),
        sections = sections,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_scenario_serial;
    use crate::spec::WorkloadSpec;

    fn tiny(seeds: &[u64], report: ReportKind) -> (Scenario, ResultSet) {
        let scn = Scenario::new("tiny", "tiny figure scenario")
            .workload(WorkloadSpec::named("counter").param("total_incs", 120))
            .threads(&[1, 2])
            .seeds(seeds)
            .report(report);
        let set = run_scenario_serial(&scn).expect("tiny scenario runs");
        (scn, set)
    }

    #[test]
    fn speedup_svg_has_error_bars_iff_multi_seed() {
        let (scn, set) = tiny(&[11, 12], ReportKind::Speedup);
        let svg = render_figure(&scn, &set);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("counter (commtm)"));
        assert!(svg.contains("counter (baseline)"));
        assert!(
            svg.contains("class=\"errbar\""),
            "two seeds must draw error bars:\n{svg}"
        );
        let (scn1, set1) = tiny(&[11], ReportKind::Speedup);
        let svg1 = render_figure(&scn1, &set1);
        assert!(
            !svg1.contains("errbar"),
            "a single seed has zero spread and no error bars"
        );
        assert_eq!(figure_file_name(&scn), "tiny.svg");
    }

    #[test]
    fn breakdown_svg_stacks_components() {
        let (scn, set) = tiny(&[11, 12], ReportKind::CycleBreakdown);
        let svg = render_figure(&scn, &set);
        assert!(svg.contains("class=\"seg\""));
        assert!(svg.contains("committed"));
        assert!(!svg.contains("NaN"));
        let (scn, set) = tiny(&[11], ReportKind::WastedBreakdown);
        let svg = render_figure(&scn, &set);
        assert!(svg.contains("RaW"), "fig18 buckets label the legend");
    }

    #[test]
    fn missing_normalization_reference_leaves_a_gap_not_raw_counts() {
        use ReportKind::{CycleBreakdown, GetsBreakdown, WastedBreakdown};
        for kind in [CycleBreakdown, WastedBreakdown, GetsBreakdown] {
            let (scn, mut set) = tiny(&[11], kind);
            // Fail the normalization reference cells (baseline @ 1 thread).
            for c in &mut set.cells {
                if c.cell.threads == 1 && c.cell.scheme == Scheme::Baseline {
                    c.stats = None;
                    c.error = Some("induced failure".into());
                }
            }
            let svg = render_figure(&scn, &set);
            assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
            // baseline@1 is a cycle or waste label's whole reference;
            // GETs normalize per point, so only their 1-thread bars lose
            // it. Such bars are skipped, never drawn as raw counts, and
            // the text report prints no number for them.
            let gap = |threads: &str| kind != GetsBreakdown || threads == "1";
            assert_eq!(
                svg.contains("class=\"seg\""),
                kind == GetsBreakdown,
                "{svg}"
            );
            let text = crate::report::render(&scn, &set);
            let rows = text.lines().filter_map(|l| {
                let (id, values) = l.split_once('|')?;
                let id: Vec<&str> = id.split_whitespace().collect();
                (id.first() == Some(&"counter")).then(|| (id[1], values))
            });
            let gaps: Vec<&str> = rows.filter(|(t, _)| gap(t)).map(|(_, v)| v).collect();
            assert!(!gaps.is_empty(), "{text}");
            for values in gaps {
                assert!(
                    !values.contains(|c: char| c.is_ascii_digit()),
                    "{kind:?}:\n{text}"
                );
            }
        }
    }

    #[test]
    fn table2_renders_html() {
        let (scn, set) = tiny(&[11, 12], ReportKind::Table2);
        let html = render_figure(&scn, &set);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<td>counter</td>"));
        assert!(html.contains("labeled ops"));
        assert_eq!(figure_file_name(&scn), "tiny.html");
    }
}
