"""Governors: formulas converting an input signal to a capacity limit.

Following EcoFreq's decomposition (SNIPPETS.md §1), a *governor* is the
"what limit does this signal imply" half of a policy; the *control method*
(:mod:`repro.policy.controls`) is the "how is the limit applied" half.
Four rule families cover the paper's scenarios:

* ``const`` — a fixed limit, independent of the signal.  The TPM's
  per-cabinet discharge-current cap (Figure 11) is a const governor.
* ``list`` — a discrete zone → limit table ("green=max, red=0.5"), fed
  by a signal provider's zone labels (e.g. carbon-intensity bands).
* ``step`` — a threshold staircase over a numeric signal
  (``step:100=70%:200=50%``: at or above 100 the limit is 0.7, at or
  above 200 it is 0.5, below 100 it is the ``below`` limit).
* ``linear`` — linear interpolation between two signal pivots, with the
  endpoint limits returned *exactly* at and beyond the pivots.

Limits are dimensionless capacity fractions in ``[0, 1]`` unless a
governor declares otherwise through :attr:`Governor.limit_range` —
:class:`BudgetRampGovernor` (the SPM's Eq. 1 prorated discharge budget)
returns amp-hours and declares an unbounded range.

The :func:`parse_governor` grammar mirrors EcoFreq's config strings so a
scenario definition can carry its policy as one readable token.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence


def _finite_number(token: str) -> float:
    """Parse one number of the rule grammar; ``nan`` and ``inf`` raise
    ``ValueError``, as no limit or pivot can be compared against them."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token.strip()!r} is not a finite number")
    return value


def parse_limit_value(token: str) -> float:
    """Parse one limit token: ``max`` → 1.0, ``70%`` → 0.7, else a number."""
    token = token.strip()
    if token == "max":
        return 1.0
    if token == "min":
        return 0.0
    if token.endswith("%"):
        return _finite_number(token[:-1]) / 100.0
    return _finite_number(token)


class Governor:
    """Base class: maps an input signal to a capacity limit.

    Subclasses implement :meth:`limit` and keep it a *pure* function of
    the signal — governors hold no mutable state, which is what makes the
    refactored SPM/TPM controllers bit-exact compositions and lets the
    conformance kit probe them exhaustively.
    """

    #: Inclusive output range the governor promises to stay within.
    limit_range: tuple[float, float] = (0.0, 1.0)
    #: ``"value"`` governors consume the provider's numeric signal;
    #: ``"zone"`` governors consume its discrete zone label.
    input_kind: str = "value"

    def limit(self, signal: float = 0.0) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class ConstGovernor(Governor):
    """``const:VALUE`` — the limit is the same for every signal value.

    The stored value is *not* forced into [0, 1]: the TPM's discharge cap
    uses a const governor whose value is a precomputed current in amps
    (``cap_c_rate * capacity_ah``), preserving the exact float product the
    original monolithic controller computed.
    """

    def __init__(self, value: float) -> None:
        self.value = float(value)
        self.limit_range = (self.value, self.value)

    def limit(self, signal: float = 0.0) -> float:
        return self.value

    def describe(self) -> str:
        return f"const:{self.value:g}"


class ListGovernor(Governor):
    """``list:ZONE=LIMIT:...`` — a discrete zone-label → limit table.

    The signal provider supplies the zone label (its ``zone(t)``); unknown
    labels fall back to ``default`` — by convention the most conservative
    (smallest) limit in the table, so a provider growing a new zone can
    never accidentally *raise* the cap.
    """

    input_kind = "zone"

    def __init__(self, table: Mapping[str, float],
                 default: float | None = None) -> None:
        if not table:
            raise ValueError("list governor needs at least one zone entry")
        self.table = {str(k): float(v) for k, v in table.items()}
        self.default = float(default) if default is not None \
            else min(self.table.values())
        values = [*self.table.values(), self.default]
        self.limit_range = (min(values), max(values))

    def limit(self, signal: float | str = "") -> float:
        return self.table.get(signal, self.default)

    def describe(self) -> str:
        entries = ":".join(f"{k}={v:g}" for k, v in self.table.items())
        return f"list:{entries}"


class StepGovernor(Governor):
    """``step:T1=L1:T2=L2:...`` — a staircase over a numeric signal.

    Thresholds ascend; the limit belongs to the greatest threshold at or
    below the signal.  Signals below every threshold get ``below``
    (default 1.0 — no restriction while the signal is benign).
    """

    def __init__(self, steps: Sequence[tuple[float, float]],
                 below: float = 1.0) -> None:
        if not steps:
            raise ValueError("step governor needs at least one threshold")
        ordered = sorted((float(t), float(v)) for t, v in steps)
        thresholds = [t for t, _ in ordered]
        if len(set(thresholds)) != len(thresholds):
            raise ValueError("step governor thresholds must be distinct")
        self.steps = ordered
        self.below = float(below)
        values = [v for _, v in ordered] + [self.below]
        self.limit_range = (min(values), max(values))

    def limit(self, signal: float = 0.0) -> float:
        chosen = self.below
        for threshold, value in self.steps:
            if signal >= threshold:
                chosen = value
            else:
                break
        return chosen

    def describe(self) -> str:
        entries = ":".join(f"{t:g}={v:g}" for t, v in self.steps)
        return f"step:{entries}"


class LinearGovernor(Governor):
    """``linear:LO:HI[:LIMIT_AT_LO:LIMIT_AT_HI]`` — linear interpolation.

    At or below the ``lo`` pivot the limit is exactly ``limit_at_lo``
    (default 1.0); at or beyond ``hi`` exactly ``limit_at_hi`` (default
    0.0); in between it interpolates linearly.  Endpoint exactness is a
    contract the property suite pins: no last-ulp wobble at the pivots.
    """

    def __init__(self, lo: float, hi: float,
                 limit_at_lo: float = 1.0, limit_at_hi: float = 0.0) -> None:
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ValueError(f"linear governor needs hi > lo, got {lo}..{hi}")
        self.lo = lo
        self.hi = hi
        self.limit_at_lo = float(limit_at_lo)
        self.limit_at_hi = float(limit_at_hi)
        self.limit_range = (min(self.limit_at_lo, self.limit_at_hi),
                            max(self.limit_at_lo, self.limit_at_hi))

    def limit(self, signal: float = 0.0) -> float:
        if signal <= self.lo:
            return self.limit_at_lo
        if signal >= self.hi:
            return self.limit_at_hi
        frac = (signal - self.lo) / (self.hi - self.lo)
        return self.limit_at_lo + frac * (self.limit_at_hi - self.limit_at_lo)

    def describe(self) -> str:
        return (f"linear:{self.lo:g}:{self.hi:g}"
                f":{self.limit_at_lo:g}:{self.limit_at_hi:g}")


class BudgetRampGovernor(Governor):
    """Eq. 1's prorated lifetime-budget ramp: D_L · T / T_L, in Ah.

    The SPM's discharge-threshold formula is this governor plus the
    carried-over unused budget and the elastic bonus (state that stays in
    :class:`~repro.core.spatial.SpatialPolicy`).  The expression keeps
    the exact association order of the original monolith —
    ``lifetime_ah * (t / 86400.0) / design_life_days`` — so the golden
    digests are unchanged by the composition refactor.
    """

    limit_range = (0.0, math.inf)

    def __init__(self, lifetime_ah: float, design_life_days: float) -> None:
        if lifetime_ah <= 0 or design_life_days <= 0:
            raise ValueError("lifetime_ah and design_life_days must be positive")
        self.lifetime_ah = float(lifetime_ah)
        self.design_life_days = float(design_life_days)

    def limit(self, signal: float = 0.0) -> float:
        """Prorated budget in Ah for ``signal`` elapsed seconds."""
        return self.lifetime_ah * (signal / 86400.0) / self.design_life_days

    def daily(self) -> float:
        """One day's worth of the lifetime budget (Ah)."""
        return self.lifetime_ah / self.design_life_days

    def describe(self) -> str:
        return f"budget-ramp:{self.lifetime_ah:g}Ah/{self.design_life_days:g}d"


def parse_governor(spec: str) -> Governor:
    """Build a governor from an EcoFreq-style rule string.

    Grammar (colon-separated)::

        const:0.8 | const:80% | const:max
        list:green=max:yellow=0.7:red=0.5[:default=0.5]
        step:100=70%:200=50%[:below=max]
        linear:100:500[:LIMIT_AT_LO:LIMIT_AT_HI]

    Raises ``ValueError`` naming the offending spec on any syntax error
    or non-finite number.
    """
    kind, _, rest = spec.strip().partition(":")
    try:
        if kind == "const":
            return ConstGovernor(parse_limit_value(rest))
        if kind == "list":
            table: dict[str, float] = {}
            default: float | None = None
            for part in rest.split(":"):
                label, sep, value = part.partition("=")
                if not sep:
                    raise ValueError(f"malformed list entry {part!r}")
                if label.strip() == "default":
                    default = parse_limit_value(value)
                else:
                    table[label.strip()] = parse_limit_value(value)
            return ListGovernor(table, default=default)
        if kind == "step":
            steps: list[tuple[float, float]] = []
            below = 1.0
            for part in rest.split(":"):
                left, sep, value = part.partition("=")
                if not sep:
                    raise ValueError(f"malformed step entry {part!r}")
                if left.strip() == "below":
                    below = parse_limit_value(value)
                else:
                    steps.append((_finite_number(left), parse_limit_value(value)))
            return StepGovernor(steps, below=below)
        if kind == "linear":
            parts = rest.split(":")
            if len(parts) == 2:
                return LinearGovernor(_finite_number(parts[0]), _finite_number(parts[1]))
            if len(parts) == 4:
                return LinearGovernor(
                    _finite_number(parts[0]), _finite_number(parts[1]),
                    parse_limit_value(parts[2]), parse_limit_value(parts[3]),
                )
            raise ValueError("linear takes 2 or 4 parameters")
    except ValueError as exc:
        raise ValueError(f"bad governor spec {spec!r}: {exc}") from None
    raise ValueError(
        f"bad governor spec {spec!r}: unknown rule kind {kind!r} "
        "(expected const, list, step or linear)"
    )
