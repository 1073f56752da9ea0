"""Command-line interface.

Run reproduction experiments without writing code::

    python -m repro day --controller insure --workload video --solar sunny
    python -m repro compare --workload seismic --mean-w 500
    python -m repro table 2
    python -m repro table 7
    python -m repro figure 20 --jobs 4
    python -m repro cache info
    python -m repro plan --gb-per-day 120 --sunshine 0.7 --days 180
    python -m repro validate --jobs 4
    python -m repro validate --refresh
    python -m repro validate --sweep-hours 36 --report sweep.json
    python -m repro report run --workload video --compare baseline --out flight/
    python -m repro fleet run --sites 1024 --seeds 1 --backend fleet
    python -m repro fleet mc --cabinets 2,3,4,5 --samples 64
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.system import build_day_system
from repro.telemetry.analyzer import all_improvements
from repro.telemetry.metrics import RunSummary
from repro.workloads import SeismicAnalysis, VideoSurveillance


def _print_summary(summary: RunSummary) -> None:
    print(f"uptime                {summary.availability_pct:8.1f} %")
    print(f"processed             {summary.processed_gb:8.1f} GB")
    print(f"throughput            {summary.throughput_gb_per_hour:8.2f} GB/h")
    print(f"mean delay            {summary.mean_delay_minutes:8.1f} min")
    print(f"load energy           {summary.load_energy_kwh:8.2f} kWh")
    print(f"effective energy      {summary.effective_energy_kwh:8.2f} kWh")
    print(f"e-Buffer availability {summary.energy_availability_wh:8.0f} Wh")
    print(f"projected life        {summary.projected_life_days:8.0f} days")
    print(f"perf per Ah           {summary.perf_per_ah_gb:8.2f} GB/Ah")
    print(f"power/VM/on-off ops   {summary.power_ctrl_times:4d} /"
          f" {summary.vm_ctrl_times:4d} / {summary.on_off_cycles:4d}")


def _cmd_day(args: argparse.Namespace) -> int:
    system = build_day_system(args.controller, args.workload, args.solar,
                              mean_w=args.mean_w, seed=args.seed,
                              initial_soc=args.initial_soc)
    summary = system.run()
    print(f"{args.controller} / {args.workload} / {args.solar} "
          f"({args.mean_w:.0f} W avg, seed {args.seed})")
    print("-" * 44)
    _print_summary(summary)
    if args.report:
        from pathlib import Path

        from repro.telemetry.report import render_summary

        Path(args.report).write_text(render_summary(
            summary,
            title=f"{args.controller} / {args.workload} / {args.solar}",
        ))
        print(f"\nreport written to {args.report}")
    if args.trace_csv:
        from repro.telemetry.io import export_recorder_csv

        export_recorder_csv(system.recorder, args.trace_csv)
        print(f"trace written to {args.trace_csv}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    summaries = {}
    for controller in ("insure", "baseline"):
        system = build_day_system(controller, args.workload, args.solar,
                                  mean_w=args.mean_w, seed=args.seed,
                                  initial_soc=args.initial_soc)
        summaries[controller] = system.run()
    for controller, summary in summaries.items():
        print(f"\n[{controller}]")
        _print_summary(summary)
    print("\nInSURE improvement over baseline:")
    improvements = all_improvements(summaries["insure"], summaries["baseline"])
    for metric, value in improvements.items():
        print(f"  {metric:16s} {value * 100:+7.0f} %")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 2:
        from repro.experiments.fixed_config import run_fixed_config

        print("Table 2 — seismic at 2 kWh")
        for vms in (8, 4):
            result = run_fixed_config(SeismicAnalysis(arrivals_per_day=()), vms)
            print(f"  {vms} VM: {result.avg_power_w:6.0f} W  "
                  f"avail {result.availability * 100:5.1f} %  "
                  f"{result.throughput_gb_per_hour:5.2f} GB/h")
    elif args.number == 3:
        from repro.experiments.fixed_config import run_energy_window

        print("Table 3 — video at 2 kWh")
        for vms in (8, 6, 4, 2):
            result = run_energy_window(VideoSurveillance(), vms)
            print(f"  {vms} VM: {result.avg_power_w:6.0f} W  "
                  f"delay {result.mean_delay_minutes:6.1f} min  "
                  f"{result.throughput_gb_per_hour / 60:6.3f} GB/min")
    elif args.number == 6:
        from repro.experiments.table6 import format_table6, run_table6

        print(format_table6(run_table6(max_workers=args.jobs,
                                       use_cache=not args.no_cache)))
    elif args.number == 7:
        from repro.experiments.table7 import efficiency_gains, run_table7

        rows = run_table7()
        for item in rows:
            print(f"  {item.benchmark:9s} {item.server:11s} "
                  f"exe {item.exe_time_s:7.1f} s  {item.avg_power_w:5.0f} W  "
                  f"{item.gb_per_kwh:8.0f} GB/kWh")
        gains = efficiency_gains(rows)
        print("  gains:", {k: round(v, 1) for k, v in gains.items()})
    else:
        raise SystemExit(f"table {args.number} not available (use 2, 3, 6 or 7)")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.fullsystem import run_figure20, run_figure21

    runner = {20: run_figure20, 21: run_figure21}[args.number]
    results = runner(seed=args.seed, max_workers=args.jobs,
                     use_cache=not args.no_cache)
    workload = {20: "seismic batch", 21: "video stream"}[args.number]
    print(f"Figure {args.number} — {workload}, InSURE improvement over baseline")
    for level in ("high", "low"):
        comparison = results[level]
        print(f"\n[{level} solar — {comparison.solar_mean_w:.0f} W avg]")
        for metric, value in comparison.improvements.items():
            print(f"  {metric:16s} {value * 100:+7.0f} %")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sim.cache import ENV_VAR, default_cache

    cache = default_cache()
    if args.action == "info":
        if not cache.enabled:
            print(f"cache disabled ({ENV_VAR}={'off'!r})")
        else:
            print(f"directory: {cache.directory}")
            print(f"entries:   {cache.entry_count()}")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached run(s)")
    return 0


def _parse_cells(specs):
    if not specs:
        return None
    from repro.validate.golden import parse_cell_id

    try:
        return [parse_cell_id(spec) for spec in specs]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate import golden

    golden_dir = args.golden_dir or golden.DEFAULT_GOLDEN_DIR
    cells = _parse_cells(args.cell)
    count = len(cells) if cells else len(golden.all_cells())
    if args.sweep_hours is not None:
        return _run_sweep(args, cells, count)
    if args.refresh:
        print(f"refreshing {count} golden cell(s) …")
        paths = golden.refresh_matrix(golden_dir, cells=cells,
                                      max_workers=args.jobs)
        for path in paths:
            print(f"  wrote {path}")
        return 0

    print(f"validating {count} golden cell(s) …")
    report = golden.check_matrix(golden_dir, cells=cells,
                                 max_workers=args.jobs)
    failed = 0
    for name, diffs in report.items():
        if diffs:
            failed += 1
            print(f"  FAIL {name}")
            for line in diffs:
                print(f"       {line}")
        else:
            print(f"  ok   {name}")
    if failed:
        print(f"\n{failed}/{len(report)} cell(s) diverged; if the change is "
              f"intentional, refresh with `repro validate --refresh` and "
              f"review the digest diff (see docs/validation.md)")
        return 1
    print("\nall cells match; physics invariants clean")
    return 0


def _run_sweep(args: argparse.Namespace, cells, count: int) -> int:
    """Extended-horizon invariant sweep (the nightly CI job's workhorse)."""
    import json

    from repro.validate import golden

    hours = args.sweep_hours
    if hours <= 0:
        raise SystemExit(f"--sweep-hours must be positive, got {hours}")
    print(f"invariant sweep: {count} cell(s) over {hours:g} h …")
    verdicts = golden.invariant_sweep(hours * 3600.0, cells=cells,
                                     max_workers=args.jobs)
    violated = 0
    for name, verdict in sorted(verdicts.items()):
        violations = verdict.get("violations", 0)
        status = "ok  " if not violations else "FAIL"
        print(f"  {status} {name}: {verdict['checks_run']} checks, "
              f"{violations} violation(s)")
        for line in verdict.get("first_violations", [])[:3]:
            print(f"       {line}")
        violated += bool(violations)
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(
            json.dumps({"sweep_hours": hours, "cells": verdicts},
                       indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.report}")
    if violated:
        print(f"\n{violated}/{len(verdicts)} cell(s) violated invariants")
        return 1
    print("\nall cells clean")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.flight import (
        render_markdown,
        run_flight,
        write_flight_report,
    )

    if args.scenario is not None:
        from repro.experiments.scenarios import scenario_names

        if args.scenario not in scenario_names():
            listing = "\n  ".join(scenario_names())
            raise SystemExit(
                f"unknown scenario {args.scenario!r}; available scenarios:\n"
                f"  {listing}"
            )
    duration_s = args.duration_h * 3600.0 if args.duration_h else None
    report = run_flight(
        controller=args.controller,
        workload=args.workload,
        weather=args.solar,
        mean_w=args.mean_w,
        seed=args.seed,
        initial_soc=args.initial_soc,
        duration_s=duration_s,
        stride=args.stride,
        compare=args.compare,
        scenario=args.scenario,
        cprofile_path=args.cprofile,
    )
    markdown = render_markdown(report)
    if args.out:
        paths = write_flight_report(report, args.out, with_html=args.html)
        for label, path in sorted(paths.items()):
            print(f"{label:16s} {path}")
    else:
        print(markdown)
    closure = report.obs.ledger.closure()
    if not closure.ok:
        print(f"\nWARNING: {closure}", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.fullsystem import run_single
    from repro.experiments.runner import derive_seed, run_cells
    from repro.solar.traces import make_day_trace

    if args.sites < 1 or args.seeds < 1:
        raise SystemExit("--sites and --seeds must be at least 1")

    cells = [
        dict(
            controller=args.controller,
            workload_kind=args.workload,
            profile=args.solar,
            solar_mean_w=args.mean_w,
            seed=derive_seed(args.seed, "fleet", batch, site),
            initial_soc=args.initial_soc,
            use_cache=False,
        )
        for batch in range(args.seeds)
        for site in range(args.sites)
    ]
    trace = make_day_trace(args.solar, target_mean_w=args.mean_w,
                           seed=args.seed)
    steps = max(1, round(trace.duration_s / trace.dt_seconds))

    t0 = time.perf_counter()
    summaries = run_cells(run_single, cells, backend=args.backend,
                          max_workers=args.jobs)
    wall_s = time.perf_counter() - t0

    runs = len(summaries)
    ticks = runs * steps
    print(f"{args.controller} / {args.workload} / {args.solar} "
          f"({args.mean_w:.0f} W avg) — {args.sites} site(s) x "
          f"{args.seeds} seed(s), backend {args.backend}")
    print(f"{ticks:,} site-ticks in {wall_s:.2f} s "
          f"({ticks / wall_s:,.0f} ticks/s aggregate)")
    print()
    _print_fleet_percentiles(summaries)
    return 0


def _print_fleet_percentiles(summaries) -> None:
    """Per-site distribution table over the fleet's run summaries."""
    from repro.experiments.montecarlo import PERCENTILES, percentile

    metrics = (
        ("uptime %", [s.uptime_fraction * 100.0 for s in summaries], "7.1f"),
        ("processed GB", [s.processed_gb for s in summaries], "7.1f"),
        ("throughput GB/h", [s.throughput_gb_per_hour for s in summaries],
         "7.2f"),
        ("min voltage V", [s.min_battery_voltage for s in summaries], "7.2f"),
        ("life days", [s.projected_life_days for s in summaries], "7.0f"),
    )
    header = f"{'per-site':16s}" + "".join(f" {'p' + str(p):>8s}"
                                           for p in PERCENTILES)
    print(header)
    print("-" * len(header))
    for label, values, fmt in metrics:
        row = "".join(f" {percentile(values, p):>8{fmt[1:]}}"
                      for p in PERCENTILES)
        print(f"{label:16s}{row}")


def _cmd_fleet_mc(args: argparse.Namespace) -> int:
    from repro.experiments.montecarlo import format_monte_carlo, run_monte_carlo

    counts = tuple(int(c) for c in args.cabinets.split(","))
    points = run_monte_carlo(
        battery_counts=counts,
        solar_scale=args.solar_scale,
        samples=args.samples,
        base_seed=args.seed,
        backend=args.backend,
        max_workers=args.jobs,
        use_cache=not args.no_cache,
    )
    print(f"Monte Carlo provisioning — {args.samples} sample(s)/config, "
          f"backend {args.backend}")
    print(format_monte_carlo(points))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import (
        build_policies,
        get_scenario,
        run_scenario_cell,
        scenario_names,
        scenario_seed,
    )

    if not args.name:
        print("available scenarios:")
        for name in scenario_names():
            spec = get_scenario(name)
            print(f"\n[{name}]  {spec.controller} / {spec.workload} / "
                  f"{spec.weather}")
            print(f"  {spec.description}")
            for policy in build_policies(name, scenario_seed(name)):
                print(f"  - {policy.describe()}")
        return 0
    try:
        spec = get_scenario(args.name)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    summary = run_scenario_cell(args.name, use_cache=not args.no_cache)
    print(f"scenario {args.name} — {spec.controller} / {spec.workload} / "
          f"{spec.weather} (seed {scenario_seed(args.name)})")
    print("-" * 44)
    _print_summary(summary)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.daemon import ServeDaemon

    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_buffered_events=args.max_buffered_events,
    )
    try:
        asyncio.run(daemon.serve_forever())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.cost.scaleout import cloud_cost, insitu_cost, pods_required

    years = args.days / 365.0
    local = insitu_cost(args.gb_per_day, args.sunshine, years)
    remote = cloud_cost(args.gb_per_day, years)
    pods = pods_required(args.gb_per_day, args.sunshine)
    print(f"in-situ: ${local:,.0f} ({pods} pod(s))   cloud: ${remote:,.0f}")
    if local < remote:
        print(f"deploy in-situ — saves {100 * (1 - local / remote):.0f}%")
    else:
        print(f"use the cloud — in-situ costs {100 * (local / remote - 1):.0f}% more")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import render_json, render_text, rule_names, run_lint
    from repro.analysis.registry import make_rules

    if args.list_rules:
        for rule in make_rules():
            print(f"{rule.id}: {rule.description}")
        return 0

    rule_ids = args.rule if args.rule else None
    if rule_ids:
        unknown = sorted(set(rule_ids) - set(rule_names()))
        if unknown:
            print(f"repro lint: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    root = Path(args.root) if args.root else None
    result = run_lint(root=root, rule_ids=rule_ids)
    if args.json:
        print(render_json(result), end="")
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="InSURE (ISCA 2015) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p):
        p.add_argument("--workload", default="video", choices=("video", "seismic"))
        p.add_argument("--solar", default="sunny",
                       choices=("sunny", "cloudy", "rainy"))
        p.add_argument("--mean-w", type=float, default=800.0)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--initial-soc", type=float, default=0.55)

    day = sub.add_parser("day", help="run one day and print the report")
    day.add_argument("--controller", default="insure",
                     choices=("insure", "baseline"))
    day.add_argument("--report", help="also write a Markdown report here")
    day.add_argument("--trace-csv", help="also export the trace channels here")
    add_run_options(day)
    day.set_defaults(func=_cmd_day)

    compare = sub.add_parser("compare", help="InSURE vs baseline on one day")
    add_run_options(compare)
    compare.set_defaults(func=_cmd_compare)

    def add_matrix_options(p):
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the cell matrix "
                            "(default: REPRO_WORKERS env or CPU count)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk run cache")

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(2, 3, 6, 7))
    add_matrix_options(table)
    table.set_defaults(func=_cmd_table)

    figure = sub.add_parser("figure", help="regenerate a paper figure matrix")
    figure.add_argument("number", type=int, choices=(20, 21))
    figure.add_argument("--seed", type=int, default=1)
    add_matrix_options(figure)
    figure.set_defaults(func=_cmd_figure)

    cache = sub.add_parser("cache", help="inspect or clear the run cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.set_defaults(func=_cmd_cache)

    validate = sub.add_parser(
        "validate",
        help="run the physics-invariant checker and golden-trace digests",
    )
    validate.add_argument("--refresh", action="store_true",
                          help="rewrite the stored golden digests")
    validate.add_argument("--cell", action="append", metavar="CTRL:WL:WEATHER",
                          help="restrict to one matrix cell (repeatable), "
                               "e.g. insure:video:sunny")
    validate.add_argument("--jobs", type=int, default=None,
                          help="worker processes for the cell matrix")
    validate.add_argument("--golden-dir", default=None,
                          help="golden record directory "
                               "(default: tests/golden in the checkout)")
    validate.add_argument("--sweep-hours", type=float, default=None,
                          metavar="H",
                          help="skip digest comparison; run an H-hour "
                               "invariant sweep instead (nightly CI mode)")
    validate.add_argument("--report", default=None, metavar="PATH",
                          help="write the sweep verdicts as JSON here "
                               "(only with --sweep-hours)")
    validate.set_defaults(func=_cmd_validate)

    report = sub.add_parser(
        "report",
        help="file a unified flight report (summary, ledger, alerts, spans)",
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_run_p = report_sub.add_parser(
        "run", help="fly one instrumented day and render the flight report"
    )
    report_run_p.add_argument("--controller", default="insure",
                              choices=("insure", "baseline"))
    add_run_options(report_run_p)
    report_run_p.add_argument("--duration-h", type=float, default=None,
                              help="horizon in hours (default: full trace)")
    report_run_p.add_argument("--stride", type=int, default=16,
                              help="trace every Nth tick (default 16)")
    report_run_p.add_argument("--compare", default=None, metavar="CONTROLLER",
                              choices=("insure", "baseline"),
                              help="also fly this controller on the same "
                                   "seed/trace and include the comparison")
    report_run_p.add_argument("--scenario", default=None, metavar="NAME",
                              help="fly a policy scenario instead (overrides "
                                   "controller/workload/solar/seed; with "
                                   "--compare, the comparison flies without "
                                   "the policy overlays)")
    report_run_p.add_argument("--out", default=None, metavar="DIR",
                              help="write flight_report.md plus the raw "
                                   "observability artifacts into DIR "
                                   "(default: print the Markdown)")
    report_run_p.add_argument("--html", action="store_true",
                              help="also render flight_report.html (with "
                                   "--out)")
    report_run_p.add_argument("--cprofile", default=None, metavar="PATH",
                              help="also write cProfile stats of the run "
                                   "(not the --compare run) to PATH")
    report_run_p.set_defaults(func=_cmd_report)

    fleet = sub.add_parser(
        "fleet",
        help="batch-simulate many sites through the vectorized SoA kernel",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="run N sites x S seeds and print the fleet distribution"
    )
    fleet_run.add_argument("--sites", type=int, default=256,
                           help="sites per seed batch (default 256)")
    fleet_run.add_argument("--seeds", type=int, default=1,
                           help="independent seed batches (default 1)")
    fleet_run.add_argument("--backend", default="fleet",
                           choices=("fleet", "pool", "serial"),
                           help="execution backend (default fleet; falls "
                                "back to pool/serial for sites it cannot "
                                "batch)")
    fleet_run.add_argument("--controller", default="insure",
                           choices=("insure", "baseline"))
    fleet_run.add_argument("--jobs", type=int, default=None,
                           help="worker processes for pool/serial fallback")
    add_run_options(fleet_run)
    fleet_run.set_defaults(func=_cmd_fleet)
    fleet_mc = fleet_sub.add_parser(
        "mc", help="Monte Carlo provisioning percentiles per e-Buffer size"
    )
    fleet_mc.add_argument("--cabinets", default="2,3,4,5",
                          help="comma-separated battery counts (default "
                               "2,3,4,5)")
    fleet_mc.add_argument("--samples", type=int, default=64,
                          help="seed samples per configuration (default 64)")
    fleet_mc.add_argument("--solar-scale", type=float, default=1.0)
    fleet_mc.add_argument("--seed", type=int, default=7)
    fleet_mc.add_argument("--backend", default="fleet",
                          choices=("fleet", "pool", "serial"))
    fleet_mc.add_argument("--jobs", type=int, default=None)
    fleet_mc.add_argument("--no-cache", action="store_true",
                          help="bypass the on-disk run cache")
    fleet_mc.set_defaults(func=_cmd_fleet_mc)

    scenario = sub.add_parser(
        "scenario",
        help="run a policy scenario cell (carbon/price-aware overlays)",
    )
    scenario.add_argument("name", nargs="?", default=None,
                          help="scenario name (omit to list scenarios and "
                               "their policies)")
    scenario.add_argument("--no-cache", action="store_true",
                          help="bypass the on-disk run cache")
    scenario.set_defaults(func=_cmd_scenario)

    serve = sub.add_parser(
        "serve",
        help="boot the simulation-as-a-service daemon (SSE streaming)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8737,
                       help="listen port (default 8737; 0 = ephemeral)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="live-session capacity (default 64)")
    serve.add_argument("--max-buffered-events", type=int, default=4096,
                       help="per-session SSE replay buffer (default 4096)")
    serve.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="run the domain-aware static analysis suite over repro's sources",
    )
    lint.add_argument("--rule", action="append", metavar="RULE-ID",
                      help="run only this rule (repeatable; default: all)")
    lint.add_argument("--json", action="store_true",
                      help="emit the versioned JSON report instead of text")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="package directory to scan (default: the "
                           "installed repro package)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rule ids and exit")
    lint.set_defaults(func=_cmd_lint)

    plan = sub.add_parser("plan", help="in-situ vs cloud deployment economics")
    plan.add_argument("--gb-per-day", type=float, required=True)
    plan.add_argument("--sunshine", type=float, default=0.7)
    plan.add_argument("--days", type=float, default=365.0)
    plan.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; a ValueError it raises (a bad number, say) is a
    usage error: exit status 2 and ``repro: error: ...`` on stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
