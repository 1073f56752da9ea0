"""Battery bank: the collection of switchable cabinets forming the e-Buffer.

The bank offers aggregate observables (stored energy, mean SoC and
voltage) and group queries by operating mode.
It does not make control decisions; those belong to the spatial/temporal
managers in :mod:`repro.core`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro.battery.params import BatteryParams
from repro.battery.unit import BatteryMode, BatteryUnit


class BatteryBank:
    """An ordered collection of battery cabinets."""

    def __init__(self, units: Iterable[BatteryUnit]) -> None:
        self.units = list(units)
        if not self.units:
            raise ValueError("a bank needs at least one unit")
        names = [u.name for u in self.units]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate unit names: {names}")

    @classmethod
    def build(
        cls,
        count: int = 3,
        params: BatteryParams | None = None,
        soc: float = 1.0,
        prefix: str = "battery",
        capacity_spread: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> "BatteryBank":
        """Construct ``count`` cabinets (default: the prototype's 3).

        ``capacity_spread`` injects manufacturing variance: each cabinet's
        capacity is scaled by a factor drawn uniformly from
        ``1 +/- capacity_spread`` (real lead-acid lots spread a few
        percent; a worn mixed bank can spread much more).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if capacity_spread < 0 or capacity_spread >= 1:
            raise ValueError("capacity_spread must be in [0, 1)")
        base = (params or BatteryParams()).validate()
        units = []
        for i in range(count):
            unit_params = base
            if capacity_spread > 0:
                if rng is None:
                    raise ValueError("capacity_spread needs an rng")
                factor = 1.0 + rng.uniform(-capacity_spread, capacity_spread)
                unit_params = dataclasses.replace(
                    base, capacity_ah=base.capacity_ah * factor
                )
            units.append(BatteryUnit(f"{prefix}-{i + 1}", unit_params, soc=soc))
        return cls(units)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[BatteryUnit]:
        return iter(self.units)

    def __getitem__(self, index: int) -> BatteryUnit:
        return self.units[index]

    def by_name(self, name: str) -> BatteryUnit:
        for unit in self.units:
            if unit.name == name:
                return unit
        raise KeyError(f"no unit named {name!r}")

    # ------------------------------------------------------------------
    # Group queries
    # ------------------------------------------------------------------
    def in_mode(self, *modes: BatteryMode) -> list[BatteryUnit]:
        return [u for u in self.units if u.mode in modes]

    def online(self) -> list[BatteryUnit]:
        """Units connected to the load bus (standby or discharging)."""
        return [u for u in self.units if u.is_online()]

    def where(self, predicate: Callable[[BatteryUnit], bool]) -> list[BatteryUnit]:
        return [u for u in self.units if predicate(u)]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    # The sums below run over lists, not generators: the same floats in
    # the same order, without a generator resumption per unit.
    @property
    def stored_energy_wh(self) -> float:
        return sum([u.stored_energy_wh for u in self.units])

    @property
    def capacity_wh(self) -> float:
        return sum(u.params.energy_wh for u in self.units)

    @property
    def mean_soc(self) -> float:
        return sum([u.soc for u in self.units]) / len(self.units)

    @property
    def mean_voltage(self) -> float:
        return sum([u.terminal_voltage for u in self.units]) / len(self.units)

    def total_discharge_ah(self) -> float:
        return sum(u.wear.discharge_ah for u in self.units)

    def discharge_imbalance(self) -> float:
        """Spread of per-unit discharge throughput (max - min, Ah).

        The spatial manager's balancing objective drives this towards zero.
        """
        values = [u.wear.discharge_ah for u in self.units]
        return max(values) - min(values)
