"""The ladder's four workloads ("rungs"): inputs, references, one pass.

Every rung is built from the benchmark seed alone; seed 1 reproduces the
pinned golden inputs.  A rung offers four steps, which the worker calls
in order: the constructor generates the inputs, :meth:`Rung.warm_up`
runs one short item so lazy imports and caches are settled,
:meth:`Rung.prepare` computes the references the outputs are checked
against (never timed), and :meth:`Rung.run_pass` runs the rung's fixed
list of work items once, returning one :class:`ItemResult` per item
with its output check already applied.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import repro.core.system as system_mod
import repro.sim.fleet.kernel as kernel_mod
import repro.solar.traces as traces_mod
from repro.experiments.runner import derive_seed
from repro.experiments.scenarios import build_policies, get_scenario, scenario_names
from repro.serve.client import ServeClient
from repro.serve.manifest import build_session_system, parse_manifest
from repro.serve.sse import SSEParser
from repro.sim.fleet.validator import compare_summaries, fingerprint_dict
from repro.validate.golden import (
    _make_workload,
    available_cell_ids,
    cell_name,
    load_record,
    matrix_cells,
    summary_fingerprint,
    trace_digests,
)
from refclock import ReferenceClock
from stats import tail
from tracing import Tracer, install

#: The seed whose inputs are the pinned golden cells.
GOLDEN_SEED = 1
DT_S = 5.0
DAY_S = 24 * 3600.0
#: Golden-cell plant configuration (repro.validate.golden).
TARGET_MEAN_W = 800.0
INITIAL_SOC = 0.55
WEATHERS = ("sunny", "cloudy", "rainy")
#: Horizon of the warm-up item every rung runs during set-up.
WARM_UP_S = 600.0

HERE = Path(__file__).resolve().parent


@dataclass
class ItemResult:
    """One work item: its id, timed host intervals, site-ticks and checked
    output."""

    id: str
    #: (start, end) ``perf_counter`` stamps of the item's timed parts.
    intervals: list[tuple[float, float]]
    ticks: int
    fingerprint: Any
    error: str | None = None

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in self.intervals)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _mismatch(got: dict, want: dict) -> str | None:
    """Name the first few keys on which two flat dicts differ."""
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    if not keys:
        return None
    shown = ", ".join(f"{k}: {got.get(k)!r} != {want.get(k)!r}" for k in keys[:3])
    return f"{len(keys)} value(s) differ ({shown})"


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) in MiB, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Rung:
    """Base class: a named workload with a fixed list of work items."""

    name = ""
    #: Monotonic time set-up started, when that is not the process start
    #: (serve-sessions counts from the daemon spawn).
    setup_started: float | None = None

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None) -> list[ItemResult]:
        raise NotImplementedError

    @contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        """Route the program's layer calls through ``tracer`` in the block."""
        installed = install(tracer)
        try:
            yield
        finally:
            installed.remove()

    def reference_clock(self) -> ReferenceClock:
        """The clock the timed pass is measured against; its bursts run in
        the process that simulates."""
        return ReferenceClock()

    def counters(self) -> dict[str, float]:
        """Per-layer metrics measured outside the span tracer."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak memory of the process that simulates."""
        return proc_peak_rss_mb()

    def close(self) -> None:
        """Release what the rung holds (processes, files)."""


def _item(tracer: Tracer | None, item_id: str):
    return nullcontext() if tracer is None else tracer.item_scope(item_id)


def day_trace(weather: str, seed: int):
    # Through the module attribute, so a traced run sees the call.
    return traces_mod.make_day_trace(weather, dt_seconds=DT_S, seed=seed,
                                     target_mean_w=TARGET_MEAN_W)


# ----------------------------------------------------------------------
# scalar-golden
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One scalar cell: a golden record name plus its plant axes and seed."""

    id: str
    controller: str
    workload: str
    weather: str
    seed: int
    scenario: str | None = None


def scalar_cells(seed: int) -> list[Cell]:
    """The 12 matrix cells and 3 scenario cells with seed-derived seeds."""
    cells = [
        Cell(cell_name(c["controller"], c["workload"], c["weather"]),
             c["controller"], c["workload"], c["weather"],
             derive_seed(seed, c["controller"], c["workload"], c["weather"]))
        for c in matrix_cells()
    ]
    for name in scenario_names():
        spec = get_scenario(name)
        cells.append(Cell(f"scenario-{name}", spec.controller, spec.workload,
                          spec.weather, derive_seed(seed, "scenario", name), name))
    return cells


class ScalarGolden(Rung):
    """The pinned cells, each a full day through ``build_system().run()``."""

    name = "scalar-golden"

    def __init__(self, seed: int, horizon_s: float = DAY_S,
                 cells: list[Cell] | None = None) -> None:
        self.seed = seed
        self.horizon_s = horizon_s
        self.cells = scalar_cells(seed) if cells is None else cells
        self.traces = {cell.id: day_trace(cell.weather, cell.seed)
                       for cell in self.cells}
        #: Expected fingerprint per cell id; a cell without one is checked
        #: only for running its full horizon.
        self.expected: dict[str, dict] = {}
        self.reference_errors: dict[str, str] = {}

    def _build(self, cell: Cell, invariants: bool = False):
        policies = build_policies(cell.scenario, cell.seed) if cell.scenario else None
        return system_mod.build_system(
            self.traces[cell.id], _make_workload(cell.workload),
            controller=cell.controller, seed=cell.seed,
            initial_soc=INITIAL_SOC, dt=DT_S, policies=policies,
            invariants=invariants,
        )

    @staticmethod
    def _fingerprint(system, summary) -> dict:
        return {"summary": summary_fingerprint(summary),
                "signals": trace_digests(system.recorder)}

    def warm_up(self) -> None:
        self._build(self.cells[0]).run(WARM_UP_S)

    def prepare(self) -> None:
        if self.seed == GOLDEN_SEED and self.horizon_s == DAY_S:
            for cell in self.cells:
                record = load_record(cell.id)
                self.expected[cell.id] = {"summary": record["summary"],
                                          "signals": record["signals"]}
            return
        # Off the golden inputs: one seed-chosen cell is recomputed under
        # the physics-invariant checker, which only reads plant state, so
        # the timed run must reproduce it bit for bit.
        cell = self.cells[self.seed % len(self.cells)]
        system = self._build(cell, invariants=True)
        summary = system.run(self.horizon_s)
        self.expected[cell.id] = self._fingerprint(system, summary)
        if system.checker.violations:
            self.reference_errors[cell.id] = (
                f"{len(system.checker.violations)} invariant violation(s): "
                f"{system.checker.violations[0]}")

    def _check(self, cell: Cell, fingerprint: dict) -> str | None:
        if cell.id in self.reference_errors:
            return self.reference_errors[cell.id]
        elapsed = fingerprint["summary"]["elapsed_s"]
        if elapsed != self.horizon_s:
            return f"ran {elapsed} s of {self.horizon_s} s"
        want = self.expected.get(cell.id)
        if want is None:
            return None
        return (_mismatch(fingerprint["summary"], want["summary"])
                or _mismatch(fingerprint["signals"], want["signals"]))

    def run_pass(self, tracer: Tracer | None) -> list[ItemResult]:
        """The whole matrix is one item, as ``repro validate`` waits for
        it.  Cell times cluster by workload kind (video cells take about
        twice as long), so a median over cells would sit on the edge of a
        cluster and swing with the noise of a single cell."""
        fingerprints, errors, intervals = {}, [], []
        for cell in self.cells:
            start = perf_counter()
            try:
                with _item(tracer, cell.id):
                    system = self._build(cell)
                    summary = system.run(self.horizon_s)
            except Exception as exc:  # one failed cell must not end the run
                intervals.append((start, perf_counter()))
                errors.append(f"{cell.id}: {_failure(exc)}")
                continue
            intervals.append((start, perf_counter()))
            fingerprints[cell.id] = self._fingerprint(system, summary)
            error = self._check(cell, fingerprints[cell.id])
            if error:
                errors.append(f"{cell.id}: {error}")
        ticks = round(self.horizon_s / DT_S) * len(fingerprints)
        return [ItemResult(self.name, intervals, ticks, fingerprints,
                           "; ".join(errors) or None)]


# ----------------------------------------------------------------------
# fleet-16 / fleet-1024
# ----------------------------------------------------------------------
#: Traces shared by reference between the sites past the golden three.
POOL_SIZE = 6


def fleet_specs(seed: int, sites: int, horizon_s: float) -> list:
    """insure/video sites: 0-2 are the golden cells' inputs at every seed
    (so a full day checks against the pinned goldens without scalar
    reference days, which would cost as much as the timed fleet-16 pass),
    the rest draw seed-derived RNG seeds and a trace from a small shared
    pool."""
    specs = []
    for weather in WEATHERS[:sites]:
        site_seed = derive_seed(GOLDEN_SEED, "insure", "video", weather)
        specs.append(kernel_mod.SiteSpec(
            "insure", "video", site_seed, INITIAL_SOC,
            tuple(day_trace(weather, site_seed).power_w.tolist()), DT_S,
            duration_s=horizon_s))
    pool = [tuple(day_trace(WEATHERS[j % 3],
                            derive_seed(seed, "fleet-pool", j)).power_w.tolist())
            for j in range(POOL_SIZE)]
    draw = random.Random(derive_seed(seed, "fleet-draw"))
    for index in range(len(specs), sites):
        specs.append(kernel_mod.SiteSpec(
            "insure", "video", derive_seed(seed, "fleet-site", index),
            INITIAL_SOC, pool[draw.randrange(POOL_SIZE)], DT_S,
            duration_s=horizon_s))
    return specs


class Fleet(Rung):
    """One ``simulate_fleet`` call over N sites, construction and
    ``summaries()`` included."""

    def __init__(self, name: str, seed: int, sites: int, horizon_s: float) -> None:
        self.name = name
        self.horizon_s = horizon_s
        self.specs = fleet_specs(seed, sites, horizon_s)
        #: Expected summary per golden-weather site index.
        self.expected: dict[int, dict] = {}

    def warm_up(self) -> None:
        kernel_mod.simulate_fleet([dataclasses.replace(spec, duration_s=WARM_UP_S)
                                   for spec in self.specs[:16]])

    def prepare(self) -> None:
        """Sites 0-2 against the golden summaries over a full day,
        otherwise against scalar ``build_system`` runs of the same sites."""
        weathers = WEATHERS[:len(self.specs)]
        if self.horizon_s == DAY_S:
            for index, weather in enumerate(weathers):
                record = load_record(cell_name("insure", "video", weather))
                self.expected[index] = record["summary"]
            return
        for index, weather in enumerate(weathers):
            spec = self.specs[index]
            system = system_mod.build_system(
                day_trace(weather, spec.seed), _make_workload("video"),
                controller="insure", seed=spec.seed, initial_soc=INITIAL_SOC,
                dt=DT_S)
            self.expected[index] = dict(vars(system.run(self.horizon_s)))

    def _check(self, summaries: list[dict]) -> str | None:
        if len(summaries) != len(self.specs):
            return f"{len(summaries)} summaries for {len(self.specs)} sites"
        for index, want in self.expected.items():
            verdict = compare_summaries(f"site {index}", summaries[index], want)
            if not verdict.ok:
                return verdict.describe()
        short = sum(s["elapsed_s"] != self.horizon_s for s in summaries)
        if short:
            return f"{short} site(s) ran short of {self.horizon_s} s"
        return None

    def run_pass(self, tracer: Tracer | None) -> list[ItemResult]:
        start = perf_counter()
        try:
            with _item(tracer, self.name):
                summaries = kernel_mod.simulate_fleet(self.specs)
        except Exception as exc:  # one failed item must not end the run
            return [ItemResult(self.name, [(start, perf_counter())], 0, None,
                               _failure(exc))]
        interval = (start, perf_counter())
        fingerprint = [fingerprint_dict(s) for s in summaries]
        ticks = sum(spec.steps() for spec in self.specs)
        return [ItemResult(self.name, [interval], ticks, fingerprint,
                           self._check(summaries))]


# ----------------------------------------------------------------------
# serve-sessions
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_TRACING_ON = re.compile("ladder: tracing on")
_CLOCK_ON = re.compile("ladder: reference clock on")
_CLOCK_OFF = re.compile("ladder: reference clock off")


class Daemon:
    """A ``repro serve --port 0`` subprocess, started through
    ``serve_boot.py``, whose output goes to a log.  A traced daemon can
    switch its span wrappers on, a plain one its reference clock."""

    def __init__(self, root: Path, log: Path, trace_out: Path | None = None) -> None:
        #: Where a plain daemon writes its reference bursts.
        self.bursts_out = log.with_suffix(".bursts.json")
        instrument = (["--bursts-out", str(self.bursts_out)] if trace_out is None
                      else ["--trace-out", str(trace_out)])
        command = [sys.executable, str(HERE / "serve_boot.py"), *instrument,
                   "--port", "0"]
        log.parent.mkdir(parents=True, exist_ok=True)
        self.log = log
        with log.open("wb") as sink:
            self.proc = subprocess.Popen(command, cwd=root, stdout=sink,
                                         stderr=subprocess.STDOUT)
        try:
            self.port = int(self.wait_for(_LISTENING).group(1))
        except BaseException:
            self.stop()
            raise

    def wait_for(self, pattern: re.Pattern, timeout: float = 60.0) -> re.Match:
        """Block until the daemon's log matches ``pattern``."""
        deadline = time.monotonic() + timeout
        while True:
            match = pattern.search(self.log.read_text(errors="replace"))
            if match:
                return match
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}: "
                                   f"{self.log.read_text(errors='replace')[-500:]}")
            if time.monotonic() > deadline:
                raise TimeoutError(f"daemon log never matched {pattern.pattern!r}")
            time.sleep(0.01)

    def stop(self) -> None:
        """Interrupt (the daemon shuts down cleanly), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class DaemonClock(ReferenceClock):
    """A reference clock whose bursts run in the daemon, the process that
    simulates the sessions, not in the load generator, which mostly
    waits and may run on the other core.  The daemon's burst stamps
    compare with the client's because ``perf_counter`` reads the
    system-wide ``CLOCK_MONOTONIC`` on Linux."""

    def __init__(self, daemon: Daemon) -> None:
        super().__init__()
        self.daemon = daemon

    def __enter__(self) -> DaemonClock:
        self.daemon.bursts_out.unlink(missing_ok=True)
        self.daemon.proc.send_signal(signal.SIGUSR2)
        self.daemon.wait_for(_CLOCK_ON)
        return self

    def __exit__(self, *exc: object) -> None:
        self.daemon.proc.send_signal(signal.SIGUSR2)
        self.daemon.wait_for(_CLOCK_OFF)
        self.bursts = [(start, duration) for start, duration
                       in json.loads(self.daemon.bursts_out.read_text())]
        self._index()


@dataclass
class Stream:
    """What one client saw of one session's event stream."""

    events: int = 0
    bytes: int = 0
    ids_increase: bool = True
    first_metrics_s: float | None = None
    summary: dict | None = None
    end_state: str | None = None


class ServeSessions(Rung):
    """One client in a closed loop, with one connection open at a time,
    streaming one-hour sessions of the pinned cells to ``end``.

    A second concurrent client made the latencies bimodal: a session ran
    either alone on the daemon's loop or shared it with the other
    client's for most of its life, taking about twice as long, and the
    share of each moved with the seed's session order, so the median
    jumped between the two modes from one seed to the next.
    """

    name = "serve-sessions"
    #: 240 sessions put 12 latency samples beyond the 95th percentile.
    SESSIONS = 240
    DURATION_S = 3600.0
    #: Seconds the client waits on the daemon before counting a failure.
    CLIENT_TIMEOUT_S = 60.0

    def __init__(self, seed: int, root: Path, out_dir: Path) -> None:
        self.root = root
        self.out_dir = out_dir
        cells = available_cell_ids()
        order = [cells[k % len(cells)] for k in range(self.SESSIONS)]
        random.Random(seed).shuffle(order)
        self.manifests = [{"cell": cell, "duration_s": self.DURATION_S}
                          for cell in order]
        self.expected: dict[str, dict] = {}
        self.daemon: Daemon | None = None
        self._cpu_s = 0.0
        self._slices = 0.0
        self._streams: list[Stream] = []
        self._latencies: list[float] = []
        self._loop_other_s = 0.0

    # -- daemon lifecycle -------------------------------------------------
    def _client(self) -> ServeClient:
        return ServeClient(port=self.daemon.port, timeout=self.CLIENT_TIMEOUT_S)

    def _start(self, trace_out: Path | None = None) -> None:
        self.setup_started = time.monotonic()
        kind = "traced" if trace_out else "plain"
        self.daemon = Daemon(self.root, self.out_dir / f"serve-daemon-{kind}.log",
                             trace_out)
        self._client().wait_ready()
        warm, _ = self._session(-1, {"cell": self.manifests[0]["cell"],
                                     "duration_s": WARM_UP_S})
        if warm.fingerprint is None:
            raise RuntimeError(f"warm-up session failed: {warm.error}")

    def warm_up(self) -> None:
        self._start()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.daemon.proc.pid)

    def reference_clock(self) -> ReferenceClock:
        return DaemonClock(self.daemon)

    @contextmanager
    def traced(self, tracer: Tracer) -> Iterator[None]:
        """Swap in a daemon started through ``serve_boot.py``: its spans are
        switched on after its warm-up and loaded into ``tracer`` on exit."""
        self.close()
        dump = self.out_dir / "serve-spans.json"
        dump.unlink(missing_ok=True)
        self._start(trace_out=dump)
        self.daemon.proc.send_signal(signal.SIGUSR1)
        self.daemon.wait_for(_TRACING_ON)
        cpu_before = proc_cpu_s(self.daemon.proc.pid)
        try:
            yield
            cpu_s = proc_cpu_s(self.daemon.proc.pid) - cpu_before
        finally:
            self.close()
        tracer.load(json.loads(dump.read_text()))
        self._loop_other_s = cpu_s - tracer.root_s

    # -- references -------------------------------------------------------
    def prepare(self) -> None:
        for cell in sorted({m["cell"] for m in self.manifests}):
            system, _obs = build_session_system(
                parse_manifest({"cell": cell, "duration_s": self.DURATION_S}))
            summary = system.run(self.DURATION_S)
            self.expected[cell] = json.loads(json.dumps(vars(summary)))

    # -- one pass ---------------------------------------------------------
    def _stream(self, session_id: str, start: float) -> Stream:
        seen = Stream()
        conn = http.client.HTTPConnection("127.0.0.1", self.daemon.port,
                                          timeout=self.CLIENT_TIMEOUT_S)
        try:
            conn.request("GET", f"/v1/sessions/{session_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raise RuntimeError(f"events: HTTP {response.status}")
            parser = SSEParser()
            last_id = 0
            while seen.end_state is None:
                chunk = response.read1(65536)
                if not chunk:
                    break
                seen.bytes += len(chunk)
                for event in parser.feed(chunk):
                    seen.events += 1
                    if event.id is None or event.id <= last_id:
                        seen.ids_increase = False
                    last_id = event.id or last_id
                    if event.event == "metrics" and seen.first_metrics_s is None:
                        seen.first_metrics_s = perf_counter() - start
                    elif event.event == "summary":
                        seen.summary = json.loads(event.data)
                    elif event.event == "end":
                        seen.end_state = json.loads(event.data)["state"]
        finally:
            conn.close()
        return seen

    def _check(self, cell: str, seen: Stream) -> str | None:
        if seen.end_state != "done":
            return f"stream ended in state {seen.end_state!r}"
        if not seen.ids_increase:
            return "event ids do not strictly increase"
        if seen.summary is None:
            return "no summary event"
        closure = seen.summary.get("closure") or {}
        if closure.get("ok") is not True:
            return f"energy ledger does not close: {closure}"
        if cell in self.expected:
            return _mismatch(seen.summary["summary"], self.expected[cell])
        return None

    def _session(self, k: int, manifest: dict) -> tuple[ItemResult, Stream | None]:
        """Create, stream to ``end``, delete: one closed-loop request."""
        item_id = f"{k:03d}:{manifest['cell']}"
        client = self._client()
        start = perf_counter()
        try:
            info = client.create_session(manifest)
            seen = self._stream(info["session"], start)
            interval = (start, perf_counter())
            client.delete_session(info["session"])
        except Exception as exc:  # one failed session must not end the run
            return ItemResult(item_id, [(start, perf_counter())], 0, None,
                              _failure(exc)), None
        summary = seen.summary["summary"] if seen.summary else {}
        fingerprint = {"cell": manifest["cell"], "summary": fingerprint_dict(summary)}
        return ItemResult(item_id, [interval], info["total_ticks"], fingerprint,
                          self._check(manifest["cell"], seen)), seen

    def run_pass(self, tracer: Tracer | None) -> list[ItemResult]:
        admin = self._client()
        pid = self.daemon.proc.pid
        cpu_before, slices_before = proc_cpu_s(pid), _slices_total(admin)
        outcomes = [self._session(k, manifest)
                    for k, manifest in enumerate(self.manifests)]
        if tracer is None:
            self._cpu_s += proc_cpu_s(pid) - cpu_before
            self._slices += _slices_total(admin) - slices_before
            self._streams.extend(seen for _, seen in outcomes if seen is not None)
            self._latencies.extend(r.seconds for r, _ in outcomes if r.error is None)
        return [result for result, _ in outcomes]

    def counters(self) -> dict[str, float]:
        sessions = max(1, len(self._streams))
        first = [s.first_metrics_s for s in self._streams if s.first_metrics_s]
        latency_tail = tail(self._latencies)
        return {
            "serve.loop_other_s": self._loop_other_s,
            "serve.first_metrics_p50_s": statistics.median(first) if first else 0.0,
            "serve.session_p95_s": latency_tail[1] if latency_tail else 0.0,
            "serve.daemon_cpu_s": self._cpu_s,
            "serve.slices": self._slices,
            "serve.events_per_session": sum(s.events for s in self._streams) / sessions,
            "serve.bytes_per_session": sum(s.bytes for s in self._streams) / sessions,
        }


def _slices_total(client: ServeClient) -> float:
    match = re.search(r"^serve_slices_total\S* (\S+)$", client.metrics(), re.M)
    if match is None:
        raise RuntimeError("daemon /metrics has no serve_slices_total")
    return float(match.group(1))


RUNGS: dict[str, Callable[[int, Path, Path], Rung]] = {
    "scalar-golden": lambda seed, root, out_dir: ScalarGolden(seed),
    "fleet-16": lambda seed, root, out_dir: Fleet("fleet-16", seed, 16, DAY_S),
    "fleet-1024": lambda seed, root, out_dir: Fleet("fleet-1024", seed, 1024,
                                                    6 * 3600.0),
    "serve-sessions": lambda seed, root, out_dir: ServeSessions(seed, root, out_dir),
}
