"""Compare a fresh engine benchmark against the committed baseline.

The CI ``bench`` job preserves the committed ``BENCH_engine.json`` as the
baseline, reruns the perf smoke (which rewrites the file in place), then
calls this script to gate the throughput delta::

    python benchmarks/compare_bench.py bench-baseline.json BENCH_engine.json

Exit status 1 means the fresh run's ``ticks_per_second`` fell more than
``--max-slowdown`` (default 25%, overridable via the
``REPRO_BENCH_MAX_SLOWDOWN`` env var) below the baseline.  Speedups and
small wobble pass; refresh the committed baseline deliberately when the
engine genuinely gets faster or slower (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ENV_MAX_SLOWDOWN = "REPRO_BENCH_MAX_SLOWDOWN"
DEFAULT_MAX_SLOWDOWN = 0.25
#: Record fields shown side by side (when both records carry them); only
#: ``ticks_per_second`` is gated.  ``best_round_seconds`` is the fleet
#: record's best warm timed round.
REPORTED_KEYS = ("ticks_per_second", "cold_seconds", "best_round_seconds",
                 "cache_replay_seconds")


def _default_max_slowdown() -> float:
    raw = os.environ.get(ENV_MAX_SLOWDOWN, "").strip()
    if not raw:
        return DEFAULT_MAX_SLOWDOWN
    try:
        return float(raw)
    except ValueError:
        print(f"ignoring bad {ENV_MAX_SLOWDOWN}={raw!r}", file=sys.stderr)
        return DEFAULT_MAX_SLOWDOWN


def load_bench(path: Path) -> dict:
    record = json.loads(path.read_text(encoding="utf-8"))
    if "ticks_per_second" not in record:
        raise SystemExit(f"{path}: not a benchmark record (no ticks_per_second)")
    return record


def compare(baseline: dict, fresh: dict, max_slowdown: float) -> tuple[bool, str]:
    """Return (ok, report).  ``ok`` is False on a gated regression."""
    base_tps = float(baseline["ticks_per_second"])
    fresh_tps = float(fresh["ticks_per_second"])
    slowdown = (base_tps - fresh_tps) / base_tps if base_tps > 0 else 0.0
    lines = [
        f"{'metric':24s} {'baseline':>12s} {'fresh':>12s} {'delta':>8s}",
        "-" * 60,
    ]
    for key in REPORTED_KEYS:
        if key not in baseline or key not in fresh:
            continue
        base_value = float(baseline[key])
        fresh_value = float(fresh[key])
        delta = (fresh_value - base_value) / base_value if base_value else 0.0
        lines.append(
            f"{key:24s} {base_value:12,.4g} {fresh_value:12,.4g} {delta:+7.1%}"
        )
    lines.append("")
    if slowdown > max_slowdown:
        lines.append(
            f"FAIL: throughput fell {slowdown:.1%} below baseline "
            f"(gate: {max_slowdown:.0%}). If this slowdown is intentional, "
            f"refresh BENCH_engine.json and commit it."
        )
        return False, "\n".join(lines)
    lines.append(
        f"ok: throughput within {max_slowdown:.0%} gate "
        f"(slowdown {slowdown:+.1%})"
    )
    return True, "\n".join(lines)


def render_markdown(
    baseline: dict, fresh: dict, ok: bool, max_slowdown: float, title: str
) -> str:
    """The comparison as a Markdown section (for $GITHUB_STEP_SUMMARY)."""
    lines = [
        f"### {title}",
        "",
        "| metric | baseline | fresh | delta |",
        "| --- | ---: | ---: | ---: |",
    ]
    for key in REPORTED_KEYS:
        if key not in baseline or key not in fresh:
            continue
        base_value = float(baseline[key])
        fresh_value = float(fresh[key])
        delta = (fresh_value - base_value) / base_value if base_value else 0.0
        lines.append(
            f"| `{key}` | {base_value:,.4g} | {fresh_value:,.4g} | {delta:+.1%} |"
        )
    verdict = "✅ within gate" if ok else "❌ **regression**"
    lines += ["", f"{verdict} (allowed slowdown: {max_slowdown:.0%})", ""]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed benchmark JSON")
    parser.add_argument("fresh", type=Path, help="freshly produced benchmark JSON")
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=_default_max_slowdown(),
        help=f"allowed fractional throughput drop (default {DEFAULT_MAX_SLOWDOWN}, "
        f"or the {ENV_MAX_SLOWDOWN} env var)",
    )
    parser.add_argument(
        "--markdown-out",
        type=Path,
        default=None,
        help="append the comparison as a Markdown section to this file "
        "(point it at $GITHUB_STEP_SUMMARY in CI)",
    )
    parser.add_argument(
        "--title",
        default=None,
        help="Markdown section heading (default: the fresh file's stem)",
    )
    args = parser.parse_args(argv)
    baseline = load_bench(args.baseline)
    fresh = load_bench(args.fresh)
    ok, report = compare(baseline, fresh, args.max_slowdown)
    print(report)
    if args.markdown_out is not None:
        title = args.title or f"bench: {args.fresh.stem}"
        with args.markdown_out.open("a", encoding="utf-8") as fh:
            fh.write(render_markdown(baseline, fresh, ok, args.max_slowdown, title))
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
