"""Unified run flight-report.

``repro report run`` (and :func:`run_flight` underneath) flies one
fully instrumented cell and files everything an operator would want
after a day of field operation in a single document:

* the :class:`~repro.telemetry.metrics.RunSummary` service/energy/buffer
  tables (reusing :func:`repro.telemetry.report.render_summary`),
* the joule-level energy ledger — every flow edge from PV harvest to
  effective work, Sankey-style with shares of harvest, plus the
  conservation-closure verdict,
* the alert timeline and decision-event totals,
* the sampled span profile of the tick loop (calls, self and total time,
  mean and max per call, share) and the hottest sampled ticks with
  their top spans,
* optionally a side-by-side against the other controller on the same
  seed and weather (``--compare``), including a per-edge ledger delta.

Rendered as Markdown and (optionally) a dependency-free HTML page;
:func:`write_flight_report` drops both next to the raw observability
artifacts (metrics, decisions, spans, ledger, alerts).  ``cprofile_path``
adds a function-level ``cProfile`` dump of the primary run (``.pstats``,
loadable by ``pstats``, ``snakeviz`` or ``flameprof``).

The report never touches simulation state: a flown run's traces stay
bit-identical to the uninstrumented same-seed run.
"""

from __future__ import annotations

import cProfile
import contextlib
import html as _html
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.system import day_site
from repro.obs.alerts import ALERT_KIND
from repro.obs.hub import Observability
from repro.obs.ledger import EDGE_NAMES, SIGNED_EDGES
from repro.telemetry.metrics import RunSummary
from repro.telemetry.report import render_comparison, render_summary


@dataclass
class FlightReport:
    """Everything one instrumented run (plus optional comparison) produced."""

    controller: str
    workload: str
    weather: str
    mean_w: float
    seed: int
    summary: RunSummary
    obs: Observability
    ticks: int
    wall_s: float
    #: Policy scenario flown, and the (stepped) policy overlays.
    scenario: str | None = None
    policies: list = None
    #: Optional comparison run on the same seed/trace.
    compare_controller: str | None = None
    compare_summary: RunSummary | None = None
    compare_obs: Observability | None = None

    @property
    def title(self) -> str:
        base = f"{self.controller} / {self.workload} / {self.weather}"
        if self.scenario:
            return f"{base} [{self.scenario}]"
        return base

    @property
    def ledger_edges(self) -> dict[str, float]:
        return self.obs.ledger.edges()

    @property
    def alerts(self) -> list:
        """The run's alerts: its ``alert.<rule>`` decisions, in order."""
        return self.obs.decisions.of_kind("alert")


def _fly(controller: str, workload: str, weather: str, mean_w: float,
         seed: int, initial_soc: float, dt: float,
         duration_s: float | None, stride: int, scenario: str | None = None,
         cprofile_path=None):
    """Build, run and time one instrumented day.

    With ``cprofile_path`` the run (not the build) is also profiled by
    ``cProfile`` and the stats are dumped there.
    """
    obs = Observability(trace_stride=stride)
    system = day_site(controller, workload, weather, mean_w=mean_w, seed=seed,
                      initial_soc=initial_soc, dt=dt,
                      scenario=scenario).build(observability=obs)
    profiler = (cProfile.Profile() if cprofile_path is not None
                else contextlib.nullcontext())
    t0 = time.perf_counter()
    with profiler:
        summary = system.run(duration_s)
    wall_s = time.perf_counter() - t0
    if cprofile_path is not None:
        Path(cprofile_path).parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(cprofile_path)
    return system, summary, wall_s


def run_flight(
    controller: str = "insure",
    workload: str = "seismic",
    weather: str = "sunny",
    mean_w: float = 800.0,
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
    duration_s: float | None = None,
    stride: int = 16,
    compare: str | None = None,
    scenario: str | None = None,
    cprofile_path=None,
) -> FlightReport:
    """Fly one instrumented cell (and optionally a comparison controller
    over the identical trace and seed) and collect the flight report.

    ``cprofile_path`` dumps ``cProfile`` stats of the primary run only;
    the comparison run is never profiled.

    ``scenario`` flies a policy scenario instead: the controller, workload,
    weather and seed come from its pinned spec, its policy overlays are
    attached, and the report grows a Policies section.  The comparison run
    (if any) flies *without* overlays — it shows what the plain controller
    would have done on the identical trace.
    """
    if scenario is not None:
        from repro.validate.golden import resolve_cell

        cell = resolve_cell(scenario=scenario)
        controller, workload, weather = cell.controller, cell.workload, cell.weather
        seed = cell.seed
    system, summary, wall_s = _fly(controller, workload, weather, mean_w,
                                   seed, initial_soc, dt, duration_s, stride,
                                   scenario=scenario, cprofile_path=cprofile_path)
    report = FlightReport(
        controller=controller, workload=workload, weather=weather,
        mean_w=mean_w, seed=seed, summary=summary, obs=system.obs,
        ticks=system.engine.clock.step_index, wall_s=wall_s,
        scenario=scenario, policies=system.controller.policies,
    )
    if compare is not None:
        if compare == controller and scenario is None:
            raise ValueError(
                f"--compare controller must differ from {controller!r}"
            )
        cmp_system, cmp_summary, _ = _fly(compare, workload, weather, mean_w,
                                          seed, initial_soc, dt, duration_s,
                                          stride)
        report.compare_controller = compare
        report.compare_summary = cmp_summary
        report.compare_obs = cmp_system.obs
    return report


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------
def _fmt_wh(wh: float) -> str:
    return f"{wh / 1000.0:,.2f} kWh" if abs(wh) >= 1000.0 else f"{wh:,.1f} Wh"


def _hhmm(t: float) -> str:
    minutes = int(round(t / 60.0))
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _alert_rows(report: FlightReport) -> list[list[str]]:
    """(time, rule, severity, message) per alert decision, in order."""
    return [
        [_hhmm(alert.t), alert.kind.removeprefix(ALERT_KIND),
         alert.data["severity"], alert.data["message"]]
        for alert in report.alerts
    ]


def _ledger_rows(edges: dict[str, float]) -> list[tuple[str, str, str]]:
    """(edge, energy, share-of-harvest) rows in catalogue order."""
    harvest = edges.get("pv.harvest", 0.0)
    rows = []
    for name in EDGE_NAMES:
        wh = edges[name]
        if name in SIGNED_EDGES or harvest <= 0.0:
            share = "—"
        else:
            share = f"{100.0 * wh / harvest:.1f} %"
        rows.append((name, _fmt_wh(wh), share))
    return rows


def _summary_body(summary: RunSummary, title: str) -> str:
    """render_summary without its own H1 (we supply the document's)."""
    text = render_summary(summary, title=title)
    return text.split("\n", 2)[2]


_SPAN_HEADERS = ["span", "calls", "self ms", "total ms", "mean us", "max us",
                 "share"]
_HOTTEST_HEADERS = ["tick", "t (s)", "wall us", "top spans"]


def _span_rows(report: FlightReport) -> list[list[str]]:
    """Per-span rows of the tick-loop profile, hottest (self time) first."""
    return [
        [row["span"], str(row["calls"]), f"{row['self_s'] * 1e3:.2f}",
         f"{row['total_s'] * 1e3:.2f}", f"{row['mean_us']:.1f}",
         f"{row['max_us']:.1f}", f"{row['share'] * 100:.1f} %"]
        for row in report.obs.tracer.report_rows()
    ]


def _hottest_rows(report: FlightReport) -> list[list[str]]:
    """The slowest sampled ticks, slowest first, with their top three spans."""
    rows = []
    for entry in report.obs.tracer.hottest():
        top = list(entry["breakdown"].items())[:3]
        rows.append([
            str(entry["tick"]), f"{entry['t']:.1f}", f"{entry['wall_us']:.1f}",
            ", ".join(f"{name} {self_s * 1e6:.0f} us" for name, self_s in top),
        ])
    return rows


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def _comparison_pair(report: FlightReport) -> tuple[RunSummary, RunSummary]:
    """Order (insure-like, baseline-like) for render_comparison."""
    if report.compare_controller == "insure":
        return report.compare_summary, report.summary
    return report.summary, report.compare_summary


def render_markdown(report: FlightReport) -> str:
    """The whole flight report as one Markdown document."""
    ledger = report.obs.ledger
    closure = ledger.closure()
    lines = [
        f"# Flight report — {report.title}",
        "",
        f"Seed {report.seed}, {report.mean_w:.0f} W mean solar, "
        f"{report.summary.elapsed_s / 3600.0:.1f} h simulated "
        f"({report.ticks} ticks in {report.wall_s:.2f} s wall).",
        "",
        _summary_body(report.summary, report.title),
    ]
    if report.policies:
        lines += ["## Policies", ""]
        lines += ["| policy | composition | evaluations | last limit |",
                  "|---|---|---|---|"]
        for policy in report.policies:
            last = policy._last_limit
            lines.append(
                f"| {policy.name} | {policy.describe()} | "
                f"{policy.evaluations} | "
                f"{'—' if last is None else f'{last:.3f}'} |"
            )
        lines.append("")
    lines += [
        "## Energy ledger",
        "",
        "| flow edge | energy | share of harvest |",
        "|---|---|---|",
    ]
    for edge, energy, share in _ledger_rows(report.ledger_edges):
        lines.append(f"| {edge} | {energy} | {share} |")
    lines += ["", f"Closure: {closure}", ""]

    lines += ["## Alerts", ""]
    alerts = _alert_rows(report)
    if not alerts:
        lines += ["No alerts fired.", ""]
    else:
        lines += _md_table(["time", "rule", "severity", "message"], alerts)
        lines.append("")

    lines += ["## Decisions", ""]
    counts = report.obs.decisions.counts()
    if not counts:
        lines += ["No decision events recorded.", ""]
    else:
        lines += ["| kind | count |", "|---|---|"]
        for kind, count in counts.items():
            lines.append(f"| {kind} | {count} |")
        lines.append("")

    lines += [
        "## Span profile",
        "",
        f"Sampled {report.obs.tracer.sampled_ticks} of {report.ticks} ticks "
        f"(stride {report.obs.tracer.stride}).",
        "",
    ]
    lines += _md_table(_SPAN_HEADERS, _span_rows(report))
    lines += ["", "### Hottest sampled ticks", ""]
    lines += _md_table(_HOTTEST_HEADERS, _hottest_rows(report))
    lines.append("")

    if report.compare_summary is not None:
        insure, baseline = _comparison_pair(report)
        comparison = render_comparison(
            insure, baseline,
            title=f"vs {report.compare_controller} (same seed and trace)",
        )
        lines += ["## Comparison", ""]
        lines.append(comparison.split("\n", 2)[2])
        lines += [
            "### Ledger delta",
            "",
            f"| flow edge | {report.controller} | {report.compare_controller} |",
            "|---|---|---|",
        ]
        ours = report.ledger_edges
        theirs = report.compare_obs.ledger.edges()
        for name in EDGE_NAMES:
            lines.append(f"| {name} | {_fmt_wh(ours[name])} | "
                         f"{_fmt_wh(theirs[name])} |")
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML rendering (dependency-free)
# ----------------------------------------------------------------------
_HTML_STYLE = (
    "body{font-family:sans-serif;margin:2em;max-width:60em}"
    "table{border-collapse:collapse;margin:0.5em 0}"
    "td,th{border:1px solid #999;padding:0.25em 0.6em;text-align:left}"
    "th{background:#eee}"
    ".critical{color:#a00;font-weight:bold}"
)


def _html_table(headers: list[str], rows: list[list[str]],
                row_classes: list[str] | None = None) -> list[str]:
    out = ["<table>", "<tr>" + "".join(f"<th>{_html.escape(h)}</th>"
                                       for h in headers) + "</tr>"]
    for i, row in enumerate(rows):
        cls = f' class="{row_classes[i]}"' if row_classes and row_classes[i] \
            else ""
        out.append(f"<tr{cls}>" + "".join(f"<td>{_html.escape(str(c))}</td>"
                                          for c in row) + "</tr>")
    out.append("</table>")
    return out


def render_html(report: FlightReport) -> str:
    """A minimal self-contained HTML flight report."""
    summary = report.summary
    closure = report.obs.ledger.closure()
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Flight report — {_html.escape(report.title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Flight report — {_html.escape(report.title)}</h1>",
        f"<p>Seed {report.seed}, {report.mean_w:.0f} W mean solar, "
        f"{summary.elapsed_s / 3600.0:.1f} h simulated.</p>",
        "<h2>Service</h2>",
    ]
    parts += _html_table(
        ["metric", "value"],
        [["uptime", f"{summary.availability_pct:.1f} %"],
         ["data processed", f"{summary.processed_gb:,.1f} GB"],
         ["throughput", f"{summary.throughput_gb_per_hour:,.2f} GB/h"],
         ["mean delay", f"{summary.mean_delay_minutes:,.1f} min"],
         ["solar used", f"{summary.solar_used_kwh:,.2f} kWh"],
         ["effective energy", f"{summary.effective_energy_kwh:,.2f} kWh"]],
    )
    parts.append("<h2>Energy ledger</h2>")
    parts += _html_table(["flow edge", "energy", "share of harvest"],
                         [list(row) for row in
                          _ledger_rows(report.ledger_edges)])
    parts.append(f"<p>Closure: {_html.escape(str(closure))}</p>")

    parts.append("<h2>Alerts</h2>")
    alerts = _alert_rows(report)
    if not alerts:
        parts.append("<p>No alerts fired.</p>")
    else:
        parts += _html_table(
            ["time", "rule", "severity", "message"], alerts,
            row_classes=["critical" if severity == "critical" else ""
                         for _, _, severity, _ in alerts],
        )

    parts.append("<h2>Decisions</h2>")
    counts = report.obs.decisions.counts()
    if counts:
        parts += _html_table(["kind", "count"],
                             [[k, str(v)] for k, v in counts.items()])
    else:
        parts.append("<p>No decision events recorded.</p>")

    parts.append("<h2>Span profile</h2>")
    parts += _html_table(_SPAN_HEADERS, _span_rows(report))
    parts.append("<h3>Hottest sampled ticks</h3>")
    parts += _html_table(_HOTTEST_HEADERS, _hottest_rows(report))

    if report.compare_summary is not None:
        theirs = report.compare_obs.ledger.edges()
        ours = report.ledger_edges
        parts.append(f"<h2>Ledger vs "
                     f"{_html.escape(report.compare_controller)}</h2>")
        parts += _html_table(
            ["flow edge", report.controller, report.compare_controller],
            [[name, _fmt_wh(ours[name]), _fmt_wh(theirs[name])]
             for name in EDGE_NAMES],
        )
    parts.append("</body></html>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
def write_flight_report(report: FlightReport, out_dir,
                        with_html: bool = False) -> dict[str, Path]:
    """Write the rendered report plus the raw observability artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = report.obs.export(out)
    paths["flight_md"] = out / "flight_report.md"
    paths["flight_md"].write_text(render_markdown(report), encoding="utf-8")
    if with_html:
        paths["flight_html"] = out / "flight_report.html"
        paths["flight_html"].write_text(render_html(report), encoding="utf-8")
    return paths
