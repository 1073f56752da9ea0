"""Name-based registries for governors, control methods and signals.

Scenario definitions and user configs refer to policy pieces by short
names (``control=duty_cap``, ``signal=carbon``, ``governor=step:...``);
the registries resolve them.  Third-party code extends the vocabulary
with :func:`register_control` / :func:`register_signal` /
:func:`register_governor_rule` — see ``docs/policy.md`` for a worked
example.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.policy import governors as _governors
from repro.policy.controls import (
    ChargeCurrentCapControl,
    CheckpointShedControl,
    ControlMethod,
    DutyCapControl,
    VmRetargetControl,
)
from repro.policy.governors import Governor
from repro.policy.policy import Policy
from repro.policy.signals import (
    BatterySocSignal,
    CarbonIntensitySignal,
    EnergyPriceSignal,
    SignalProvider,
    SolarForecastSignal,
)

_CONTROLS: dict[str, Callable[[], ControlMethod]] = {
    DutyCapControl.name: DutyCapControl,
    VmRetargetControl.name: VmRetargetControl,
    CheckpointShedControl.name: CheckpointShedControl,
    ChargeCurrentCapControl.name: ChargeCurrentCapControl,
}

#: Signal factories take the experiment seed (plant-backed signals
#: ignore it — their state arrives at bind time).
_SIGNALS: dict[str, Callable[[int], SignalProvider]] = {
    "carbon": lambda seed: CarbonIntensitySignal(seed=seed),
    "price": lambda seed: EnergyPriceSignal(seed=seed),
    "soc": lambda seed: BatterySocSignal(),
    "solar": lambda seed: SolarForecastSignal(),
}

_GOVERNOR_RULES: dict[str, Callable[[str], Governor]] = {}


def control_names() -> list[str]:
    return sorted(_CONTROLS)


def signal_names() -> list[str]:
    return sorted(_SIGNALS)


def make_control(name: str) -> ControlMethod:
    try:
        return _CONTROLS[name]()
    except KeyError:
        raise ValueError(
            f"unknown control method {name!r}; known: {control_names()}"
        ) from None


def make_signal(name: str, seed: int = 0) -> SignalProvider:
    try:
        return _SIGNALS[name](seed)
    except KeyError:
        raise ValueError(
            f"unknown signal {name!r}; known: {signal_names()}"
        ) from None


def make_governor(spec: str) -> Governor:
    """Resolve a governor rule string, consulting registered custom rules
    before the built-in ``const``/``list``/``step``/``linear`` grammar."""
    kind = spec.strip().partition(":")[0]
    if kind in _GOVERNOR_RULES:
        return _GOVERNOR_RULES[kind](spec)
    return _governors.parse_governor(spec)


@dataclass(frozen=True)
class PolicyDef:
    """One policy as registry names plus a governor rule string: the
    policy type of scenarios, session manifests and ``inject.policy``."""

    name: str
    signal: str
    governor: str
    control: str
    interval_s: float = 300.0


def build_policy(pdef: PolicyDef, seed: int) -> Policy:
    """Instantiate one policy definition for a concrete site seed."""
    return Policy(
        name=pdef.name,
        signal=make_signal(pdef.signal, seed=seed),
        governor=make_governor(pdef.governor),
        control=make_control(pdef.control),
        interval_s=pdef.interval_s,
    )


def register_control(cls: type[ControlMethod]) -> type[ControlMethod]:
    """Register a control method class under its ``name`` attribute.

    Usable as a decorator; re-registering a taken name raises so a typo
    cannot silently shadow a built-in.
    """
    name = cls.name
    if name in _CONTROLS:
        raise ValueError(f"control method name {name!r} already registered")
    _CONTROLS[name] = cls
    return cls


def register_signal(name: str,
                    factory: Callable[[int], SignalProvider]) -> None:
    if name in _SIGNALS:
        raise ValueError(f"signal name {name!r} already registered")
    _SIGNALS[name] = factory


def register_governor_rule(kind: str,
                           parser: Callable[[str], Governor]) -> None:
    """Register a custom governor rule kind for :func:`make_governor`."""
    if kind in _GOVERNOR_RULES or kind in ("const", "list", "step", "linear"):
        raise ValueError(f"governor rule kind {kind!r} already registered")
    _GOVERNOR_RULES[kind] = parser
