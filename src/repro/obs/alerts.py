"""Streaming alert engine over live plant state.

An :class:`AlertEngine` is an engine *observer* (registered via
:meth:`repro.sim.engine.Engine.observe`, like the invariant checker): once
every ``stride`` ticks it evaluates a set of :class:`AlertRule` objects
against the running system and fires an alert for each condition an
operator would page on — SoC draining too fast, wear concentrating on one
cabinet, discharge current brushing the temporal cap, terminal voltage
approaching the low-voltage disconnect, checkpoint-stop storms, and solar
energy curtailed for a sustained stretch.

An alert is recorded once, as an ``alert.<rule>`` decision carrying its
``severity``, ``message`` and the rule's data, so
:func:`repro.telemetry.analyzer.join_decisions` joins alerts against the
recorded trace channels and ``decisions_total{kind="alert.<rule>"}``
counts them.  :meth:`AlertEngine.counts` and :meth:`AlertEngine.to_jsonl`
are views of those decisions.

Rules are edge-triggered with hysteresis: each fires when its condition
is entered and re-arms only after the condition clears (or, for episodic
rules, when the episode ends), so a bad hour produces a handful of alerts,
not thousands.

The engine only *reads* plant state; attaching it never perturbs the
same-seed trajectory (enforced against the pinned golden digests).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, NamedTuple

from repro.obs.decisions import DecisionLog

#: Decision-kind prefix of every alert; the rule name follows it.
ALERT_KIND = "alert."


class AlertRule:
    """Base class: one streaming condition with its hysteresis state."""

    name = "base"
    severity = "warning"

    def evaluate(self, t: float, system) -> tuple[str, dict[str, Any]] | None:
        """Return ``(message, data)`` when firing this evaluation, else None."""
        raise NotImplementedError


class SocDroopRule(AlertRule):
    """Mean SoC falling faster than a sustainable rate over a window."""

    name = "soc_droop"

    def __init__(self, max_drop_per_hour: float = 0.15, window_s: float = 1800.0) -> None:
        self.max_drop_per_hour = max_drop_per_hour
        self.window_s = window_s
        self._samples: deque[tuple[float, float]] = deque()
        self._armed = True

    def evaluate(self, t, system):
        soc = system.bank.mean_soc
        samples = self._samples
        samples.append((t, soc))
        while samples and samples[0][0] < t - self.window_s:
            samples.popleft()
        t0, soc0 = samples[0]
        if t - t0 < self.window_s * 0.5:
            return None  # not enough history for a stable rate yet
        rate = (soc0 - soc) * 3600.0 / (t - t0)
        if rate > self.max_drop_per_hour:
            if self._armed:
                self._armed = False
                return (
                    f"mean SoC dropping {rate:.3f}/h over the last "
                    f"{(t - t0) / 60:.0f} min (limit {self.max_drop_per_hour}/h)",
                    {"rate_per_hour": rate, "mean_soc": soc},
                )
        elif rate < 0.5 * self.max_drop_per_hour:
            self._armed = True
        return None


class WearImbalanceRule(AlertRule):
    """Discharge throughput concentrating on a subset of cabinets."""

    name = "wear_imbalance"

    def __init__(self, max_imbalance_ah: float = 5.0) -> None:
        self.max_imbalance_ah = max_imbalance_ah
        self._armed = True

    def evaluate(self, t, system):
        units = system.bank
        discharge = [u.wear.discharge_ah for u in units]
        spread = max(discharge) - min(discharge)
        if spread > self.max_imbalance_ah:
            if self._armed:
                self._armed = False
                worst = {u.name: ah for u, ah in zip(units, discharge, strict=True)}
                return (
                    f"per-battery discharge spread {spread:.1f} Ah exceeds "
                    f"{self.max_imbalance_ah:.1f} Ah",
                    {"spread_ah": spread, "discharge_ah": worst},
                )
        elif spread < 0.8 * self.max_imbalance_ah:
            self._armed = True
        return None


class DischargeCapNearMissRule(AlertRule):
    """Total discharge current brushing the controller's temporal cap."""

    name = "discharge_cap_near_miss"

    def __init__(self, fraction: float = 0.9, rearm_fraction: float = 0.75) -> None:
        self.fraction = fraction
        self.rearm_fraction = rearm_fraction
        self._armed = True

    def evaluate(self, t, system):
        cap = getattr(system.controller, "discharge_cap_amps", None)
        if not cap:
            return None  # controller without a discharge-current cap
        total = 0.0
        for unit in system.bank:
            if unit.last_current > 0.0:
                total += unit.last_current
        if total >= self.fraction * cap:
            if self._armed:
                self._armed = False
                return (
                    f"discharge current {total:.1f} A at "
                    f"{100.0 * total / cap:.0f}% of the {cap:.1f} A cap",
                    {"total_amps": total, "cap_amps": cap},
                )
        elif total < self.rearm_fraction * cap:
            self._armed = True
        return None


class LvdProximityRule(AlertRule):
    """A discharging cabinet's terminal voltage nearing the LVD cutoff."""

    name = "lvd_proximity"
    severity = "critical"

    def __init__(self, margin_v: float = 0.25, min_discharge_a: float = 0.5) -> None:
        self.margin_v = margin_v
        self.min_discharge_a = min_discharge_a
        self._armed: dict[str, bool] = {}

    def evaluate(self, t, system):
        for unit in system.bank:
            cutoff = unit.params.voltage.v_cutoff
            near = (
                unit.last_current > self.min_discharge_a
                and unit.terminal_voltage <= cutoff + self.margin_v
            )
            if near:
                if self._armed.get(unit.name, True):
                    self._armed[unit.name] = False
                    return (
                        f"{unit.name} at {unit.terminal_voltage:.2f} V, within "
                        f"{self.margin_v:.2f} V of the {cutoff:.2f} V LVD",
                        {"unit": unit.name, "voltage": unit.terminal_voltage, "cutoff": cutoff},
                    )
            else:
                self._armed[unit.name] = True
        return None


class CheckpointStormRule(AlertRule):
    """Repeated checkpoint-stops inside a short window."""

    name = "checkpoint_storm"
    severity = "critical"

    def __init__(self, count: int = 2, window_s: float = 3600.0) -> None:
        self.count = count
        self.window_s = window_s
        self._seen_stops = 0
        self._stop_times: deque[float] = deque()

    def evaluate(self, t, system):
        stops = getattr(system.controller, "checkpoint_stops", 0)
        if stops > self._seen_stops:
            self._stop_times.extend([t] * (stops - self._seen_stops))
            self._seen_stops = stops
        times = self._stop_times
        while times and times[0] < t - self.window_s:
            times.popleft()
        if len(times) >= self.count:
            fired = len(times)
            times.clear()  # one alert per storm
            return (
                f"{fired} checkpoint-stops within {self.window_s / 60:.0f} min",
                {"stops_in_window": fired, "window_s": self.window_s},
            )
        return None


class SustainedCurtailmentRule(AlertRule):
    """Solar power curtailed continuously for a sustained stretch."""

    name = "sustained_curtailment"

    def __init__(self, floor_w: float = 100.0, duration_s: float = 1800.0) -> None:
        self.floor_w = floor_w
        self.duration_s = duration_s
        self._since: float | None = None
        self._fired = False

    def evaluate(self, t, system):
        report = system.plant.last_report
        curtailed = report.curtailed_w if report is not None else 0.0
        if curtailed > self.floor_w:
            if self._since is None:
                self._since = t
            elif not self._fired and t - self._since >= self.duration_s:
                self._fired = True
                return (
                    f"curtailing >{self.floor_w:.0f} W for "
                    f"{(t - self._since) / 60:.0f} min straight "
                    f"({curtailed:.0f} W now)",
                    {"curtailed_w": curtailed, "sustained_s": t - self._since},
                )
        else:
            self._since = None
            self._fired = False
        return None


def default_rules() -> list[AlertRule]:
    """The stock rule set (defaults documented in docs/observability.md)."""
    return [
        SocDroopRule(),
        WearImbalanceRule(),
        DischargeCapNearMissRule(),
        LvdProximityRule(),
        CheckpointStormRule(),
        SustainedCurtailmentRule(),
    ]


class _Parts(NamedTuple):
    """What the rules read of a system.  The alert engine holds these,
    never the system: the system's engine holds the alert engine."""

    bank: Any
    controller: Any
    plant: Any


class AlertEngine:
    """Engine observer evaluating alert rules on a tick stride.

    Rules see the system's ``bank``, ``controller`` and ``plant``.

    Parameters
    ----------
    decisions:
        The run's :class:`~repro.obs.decisions.DecisionLog`; each fired
        alert is recorded there as an ``alert.<rule>`` decision.
    rules:
        Rule instances to evaluate (default: :func:`default_rules`).
    stride:
        Evaluate once every ``stride`` ticks — the default samples every
        simulated minute at the standard ``dt=5`` step.
    """

    def __init__(self, decisions: DecisionLog, rules=None, stride: int = 12) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.decisions = decisions
        self.rules = list(rules) if rules is not None else default_rules()
        self.stride = int(stride)
        self._parts: _Parts | None = None

    def attach(self, system, observe: bool = True) -> "AlertEngine":
        """Bind to ``system`` (and register as an engine observer, fired
        on the ticks of the stride only)."""
        self._parts = _Parts(system.bank, system.controller, system.plant)
        if observe:
            system.engine.observe(self, name="alerts", every=self.stride)
        return self

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------
    def __call__(self, clock) -> None:
        if clock.step_index % self.stride:
            return
        system = self._parts
        t = clock.t
        for rule in self.rules:
            fired = rule.evaluate(t, system)
            if fired is not None:
                message, data = fired
                self.decisions.record(
                    t,
                    ALERT_KIND + rule.name,
                    "alerts",
                    severity=rule.severity,
                    message=message,
                    **data,
                )

    # ------------------------------------------------------------------
    # Reporting: views of the alert decisions
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Alert totals per rule, rule-sorted."""
        return {
            kind.removeprefix(ALERT_KIND): count
            for kind, count in self.decisions.counts().items()
            if kind.startswith(ALERT_KIND)
        }

    def to_jsonl(self) -> str:
        """One line per alert: ``t``, ``rule`` and the decision's payload."""
        lines = []
        for d in self.decisions.of_kind("alert"):
            payload = {"t": d.t, "rule": d.kind.removeprefix(ALERT_KIND), **d.data}
            lines.append(json.dumps(payload, sort_keys=True) + "\n")
        return "".join(lines)

    def write_jsonl(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path
