"""The benchmark ladder: four workloads, end-to-end and per-layer metrics.

    PYTHONPATH=src python benchmarks/ladder/run.py [--workload NAME]...
        [--seed N] [--trace [0|1]] [--out FILE]
    python benchmarks/ladder/run.py --compare A.jsonl B.jsonl

Each workload runs in fresh worker processes (``worker.py``): set-up is
sampled in :data:`SETUP_SAMPLES` of them and the median reported; the
last one also checks every output and times one fixed pass over the
workload's items, so a run's length is set by the workload alone
(``--seconds`` is accepted and ignored).  The pass is timed in
reference seconds, which take the host's drifting speed out
(``refclock.py``), and in host seconds.  The run prints every metric
with its unit, appends one line to ``history.jsonl`` (and to
``--out``), and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json,
or with ``--trace`` its per-layer metrics.  It exits 1 when an output
check failed (after recording the run) and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
HISTORY = HERE / "history.jsonl"
WORKLOADS = ("scalar-golden", "fleet-16", "fleet-1024", "serve-sessions")
#: Worker processes whose set-up time is sampled per workload.
SETUP_SAMPLES = 3
#: The workers of one workload must all finish within this many seconds.
DEADLINE_S = 170.0
#: Scalar and fleet runs are single-threaded; keep BLAS/OpenMP that way.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "REPRO_CACHE_DIR": "off"}
#: Absolute floors, in the metric's unit, under the relative bounds of
#: BENCHMARK.json for --compare: host noise alone moves a set-up of a few
#: hundred milliseconds by more than a quarter.
ABS_FLOOR = {"setup_s": 0.15}


class LadderError(RuntimeError):
    """A worker could not produce a record."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker to completion and return its record."""
    spawned_at = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--root", str(ROOT),
               "--spawned-at", repr(spawned_at), *flags]
    # Own process group, so a timeout also stops the worker's daemon.
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise LadderError(f"{workload}: not done within {DEADLINE_S:g} s") from None
        raise
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise LadderError(f"{workload}: worker exited {proc.returncode} "
                          f"without a record") from None


def run_workload(name: str, seed: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(name, seed, deadline, "--setup-only")["setup_s"])
    record = spawn(name, seed, deadline, *(["--trace"] if trace else []))
    setups.append(record["setup_s"])
    record["setup_samples"] = setups
    record["metrics"] = {
        "setup_s": statistics.median(setups),
        "sim_ticks_per_s": record["sim_ticks_per_s"],
        "item_p50_s": record["item_p50_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    record["host"] = {
        "sim_ticks_per_s": record["host_ticks_per_s"],
        "item_p50_s": record["host_item_p50_s"],
        "reference_burst_s": record["reference_burst_s"],
    }
    record["error_rate"] = record["failed"] / record["attempted"]
    return record


def _commit() -> str:
    # The ceiling keeps git from reporting a repository above the root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty"], capture_output=True, text=True,
                              timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _report(run: dict, bench: dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"ladder  commit {run['commit']}  seed {run['seed']}  "
          f"nproc {run['nproc']}  python {run['python']}  numpy {run['numpy']}")
    for name, result in run["workloads"].items():
        print(f"\n{name}: {result['items']} items in {result['timed_s']:.1f} s, "
              f"output_digest {result['output_digest']}")
        shown = dict(result["metrics"])
        shown.update(result.get("layers", {}))
        for metric, value in shown.items():
            print(f"  {metric:28s} {value:>16.6g} {units[metric]}")
        host = result["host"]
        print(f"  {'in host seconds':28s} {host['sim_ticks_per_s']:>16.6g} ticks/s, "
              f"item_p50 {host['item_p50_s']:.6g} s "
              f"(reference burst {host['reference_burst_s'] * 1e3:.3f} ms)")
        print(f"  {'error_rate':28s} {result['error_rate']:>16.6g} "
              f"({result['failed']}/{result['attempted']})")
        for error in result["errors"]:
            print(f"  FAILED {error}")


def _result_line(run: dict, bench: dict) -> dict:
    section = "per_layer" if run["trace"] else "end_to_end"
    results = run["workloads"]
    metrics = {}
    for name, result in results.items():
        values = result["layers"] if run["trace"] else result["metrics"]
        prefix = "" if len(results) == 1 else f"{name}."
        for metric in bench[section]:
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]],
                                                "unit": metric["unit"]}
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


def _append(path: Path, run: dict) -> None:
    with path.open("a", encoding="utf-8") as sink:
        sink.write(json.dumps(run, sort_keys=True) + "\n")


def measure(args: argparse.Namespace, bench: dict) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ladder: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        results = {name: run_workload(name, args.seed, bool(args.trace))
                   for name in args.workload or WORKLOADS}
    except LadderError as exc:
        print(f"ladder: {exc}", file=sys.stderr)
        return 2
    first = next(iter(results.values()))
    run = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": _commit(), "seed": args.seed, "trace": bool(args.trace),
        "nproc": os.cpu_count(), "python": first["python"], "numpy": first["numpy"],
        "workloads": {
            name: {key: r[key] for key in (
                "metrics", "host", "layers", "output_digest", "attempted", "failed",
                "error_rate", "errors", "timed_s", "items", "setup_samples",
            ) if key in r}
            for name, r in results.items()
        },
    }
    _report(run, bench)
    _append(HISTORY, run)
    if args.out:
        _append(args.out, run)
    line = _result_line(run, bench)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _load_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def bound_for(metric: dict, base: float) -> float:
    """The metric's relative bound, raised to its absolute floor at the
    median ``base``."""
    return max(metric["bound"], ABS_FLOOR.get(metric["name"], 0.0) / abs(base))


def verdict(before: list[float], after: list[float], better: str,
            bound: float) -> str:
    """Judge ``after`` against ``before`` for one metric of one workload.

    A spread wider than the bound leaves the metric unresolved unless
    every run of ``after`` reads better than every run of ``before``.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = quartiles(before)[1]
    worse = sign * (quartiles(after)[1] - base) / abs(base)
    if max(spread(before), spread(after)) > bound:
        if all(sign * a < sign * b for a in after for b in before):
            return "better (every run)"
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    if -worse > spread(before):
        return "better"
    return "within bound"


def compare(path_a: Path, path_b: Path, bench: dict) -> int:
    runs_a, runs_b = _load_runs(path_a), _load_runs(path_b)
    workloads = [w for w in WORKLOADS
                 if any(w in r["workloads"] for r in runs_a)
                 and any(w in r["workloads"] for r in runs_b)]
    print(f"A = {path_a} ({len(runs_a)} runs), B = {path_b} ({len(runs_b)} runs)")
    print(f"{'workload':15s} {'metric':16s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    status = 0
    for workload in workloads:
        rows_a = [r["workloads"][workload] for r in runs_a if workload in r["workloads"]]
        rows_b = [r["workloads"][workload] for r in runs_b if workload in r["workloads"]]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [row["metrics"][name] for row in rows_a if "metrics" in row]
            b = [row["metrics"][name] for row in rows_b if "metrics" in row]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            bound = bound_for(metric, qa[1])
            result = verdict(a, b, metric["better"], bound)
            status |= result == "REGRESSION"
            print(f"{workload:15s} {name:16s} "
                  f"{qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] ({len(a)}) "
                  f"{qb[1]:>10.5g} [{qb[0]:.5g}, {qb[2]:.5g}] ({len(b)}) "
                  f"{(qb[1] - qa[1]) / abs(qa[1]):>+8.1%} {bound:>6.0%}  "
                  f"{result}")
        failed = sum(row["failed"] for row in rows_b)
        print(f"{workload:15s} {'error_rate':16s} B failed {failed} of "
              f"{sum(row['attempted'] for row in rows_b)} items"
              + ("  FAILED OUTPUTS" if failed else ""))
        status |= failed > 0
    return 1 if status else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run the benchmark ladder")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed; 1 gives the pinned golden inputs")
    parser.add_argument("--seconds", type=float,
                        help="ignored: each workload times one fixed pass "
                             "(accepted for harnesses that pass a run length)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", type=Path, help="also append the run record here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two files of run records")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    if args.compare:
        return compare(*args.compare, bench)
    return measure(args, bench)


if __name__ == "__main__":
    sys.exit(main())
