"""Joule-level energy-flow ledger.

The :class:`EnergyLedger` turns a run into an accounting graph: every watt
the system moves is attributed to a named flow edge — PV harvest, MPPT
loss, direct solar service, charger conversion loss, battery well in/out,
gassing, self-discharge, curtailment, DC/DC loss, server load, effective
work, checkpoint overhead, shed load — each a cumulative Wh total since
the ledger attached.

The ledger holds **no per-tick state of its own**.  The physics components
(:class:`~repro.power.bus.PowerBus`, :class:`~repro.battery.unit.BatteryUnit`,
:class:`~repro.solar.field.SolarField`) and the
:class:`~repro.telemetry.metrics.MetricsCollector` maintain cheap cumulative
accumulators as part of their normal step, on traced and untraced ticks
alike; the ledger merely snapshots their values at attach time and reads
the deltas on demand.  Nothing feeds back into the
simulation, so same-seed traces are bit-identical with the ledger on or
off (enforced against the pinned golden digests).

Closure: the two per-tick bus identities

* ``solar = solar_to_load + charge + curtailed``
* ``demand_bus = solar_to_load + battery_to_load + unserved``

are integrated in Wh and must each stay within the integrated-energy
tolerance (:data:`~repro.validate.invariants.ACC_TOL_FLOOR_WH` plus
:data:`~repro.validate.invariants.ACC_TOL_WH_PER_H` per simulated hour).
:func:`~repro.validate.invariants.bus_closure` owns that account, and the
invariant checker's ``bus.accumulated`` check calls it on the same
integrals.  The battery-side account (terminal in − out − losses −
Δstored) is reported as a *residual* edge but not gated: stored energy is
approximated at nominal voltage, so voltage sag legitimately shows up
there.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.validate.invariants import bus_closure, bus_integrals

if TYPE_CHECKING:  # annotations only; a runtime import would be cyclic
    from repro.core.system import InSituSystem
    from repro.obs.registry import MetricsRegistry
    from repro.power.bus import PowerBus

#: Flow-edge names in rendering order (docs/observability.md catalogues
#: each edge's source, sink and measurement point).
EDGE_NAMES = (
    "pv.harvest",
    "pv.mppt_loss",
    "bus.solar_to_load",
    "bus.to_charger",
    "bus.curtailed",
    "bus.unserved",
    "bus.dcdc_loss",
    "charger.to_batteries",
    "charger.loss",
    "battery.to_load",
    "battery.gassing",
    "battery.self_discharge",
    "battery.delta_stored",
    "battery.residual",
    "servers.load",
    "servers.effective",
    "servers.checkpoint_overhead",
    "servers.idle_overhead",
)

#: Edges whose value is a signed balance, not a physical flow — excluded
#: from non-negativity expectations and from the share-of-harvest column.
SIGNED_EDGES = frozenset(
    {
        "battery.delta_stored",
        "battery.residual",
        "servers.idle_overhead",
    }
)


@dataclass(frozen=True)
class LedgerClosure:
    """Verdict of the ledger's energy-conservation account."""

    ok: bool
    #: Integrated residual of the solar-side bus identity (Wh).
    residual_solar_wh: float
    #: Integrated residual of the load-side bus identity (Wh).
    residual_load_wh: float
    #: Battery-side account residual (Wh, reported but not gated).
    battery_residual_wh: float
    #: Tolerance both gated residuals were held to (Wh).
    tolerance_wh: float
    #: Simulated hours covered by the account.
    hours: float

    def __str__(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        return (
            f"ledger closure {status} over {self.hours:.2f} h: "
            f"solar {self.residual_solar_wh:+.3g} Wh, "
            f"load {self.residual_load_wh:+.3g} Wh "
            f"(tolerance {self.tolerance_wh:.3g} Wh; battery residual "
            f"{self.battery_residual_wh:+.3g} Wh, ungated)"
        )


class EnergyLedger:
    """Cumulative energy-flow accounting over an assembled system.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        every edge is exposed as a collection-time ``ledger.edge_wh``
        gauge (zero per-tick cost) alongside the closure residuals.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry
        # The parts the accounts read, bound by attach.  The ledger holds
        # these and never the system: the system holds the ledger.
        self._bus: PowerBus | None = None
        self._bank = None
        self._collector = None
        self._source = None
        self._clock = None
        self._base: dict[str, float] = {}
        self._attach_t = 0.0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system: InSituSystem) -> "EnergyLedger":
        """Snapshot the component accumulators of ``system``; returns self.

        The gauges go into the registry on the first attach, and the
        ledger then lets go of the registry: the gauges hold the ledger.
        """
        self._bus = system.plant.bus
        self._bank = system.bank
        self._collector = system.metrics
        self._source = system.source
        self._clock = system.engine.clock
        self._attach_t = self._clock.t
        self._base = self._raw_totals()
        registry, self._registry = self._registry, None
        if registry is not None:
            self._register_gauges(registry)
        return self

    def _register_gauges(self, registry: MetricsRegistry) -> None:
        gauge = registry.gauge
        for name in EDGE_NAMES:
            gauge("ledger.edge_wh", "cumulative energy per flow edge", edge=name).set_function(
                lambda n=name: self.edges()[n]
            )
        gauge("ledger.residual_solar_wh", "integrated solar-side bus residual").set_function(
            lambda: self.closure().residual_solar_wh
        )
        gauge("ledger.residual_load_wh", "integrated load-side bus residual").set_function(
            lambda: self.closure().residual_load_wh
        )
        gauge("ledger.closure_ok", "1 when the closure account holds").set_function(
            lambda: float(self.closure().ok)
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _raw_totals(self) -> dict[str, float]:
        """Raw cumulative counters underlying the edges."""
        bank = self._bank
        collector = self._collector
        nominal_v = [unit.params.nominal_voltage for unit in bank]
        return {
            **bus_integrals(self._bus),
            "mppt_loss": getattr(self._source, "e_mppt_loss_wh", 0.0),
            "gassing": sum(u.gassing_ah * v for u, v in zip(bank, nominal_v, strict=True)),
            "self_discharge": sum(u.self_discharge_ah * v for u, v in zip(bank, nominal_v, strict=True)),
            "stored": bank.stored_energy_wh,
            "load": collector.load_energy_wh,
            "effective": collector.effective_energy_wh,
            "checkpoint": collector.checkpoint_energy_wh,
        }

    def _deltas(self) -> dict[str, float]:
        base = self._base
        return {key: value - base[key] for key, value in self._raw_totals().items()}

    def edges(self) -> dict[str, float]:
        """Cumulative Wh per flow edge since attach, in catalogue order."""
        if self._bus is None:
            raise RuntimeError("ledger is not attached to a system")
        d = self._deltas()
        charger_loss = d["charge_bus"] - d["charge_terminal"]
        delta_stored = d["stored"]
        battery_residual = (
            d["charge_terminal"]
            - d["battery_to_load"]
            - d["gassing"]
            - d["self_discharge"]
            - delta_stored
        )
        return {
            "pv.harvest": d["solar"],
            "pv.mppt_loss": d["mppt_loss"],
            "bus.solar_to_load": d["solar_to_load"],
            "bus.to_charger": d["charge_bus"],
            "bus.curtailed": d["curtailed"],
            "bus.unserved": d["unserved"],
            "bus.dcdc_loss": d["demand_bus"] - d["server_wall"],
            "charger.to_batteries": d["charge_terminal"],
            "charger.loss": charger_loss,
            "battery.to_load": d["battery_to_load"],
            "battery.gassing": d["gassing"],
            "battery.self_discharge": d["self_discharge"],
            "battery.delta_stored": delta_stored,
            "battery.residual": battery_residual,
            "servers.load": d["server_wall"],
            "servers.effective": d["effective"],
            "servers.checkpoint_overhead": d["checkpoint"],
            "servers.idle_overhead": (d["server_wall"] - d["effective"] - d["checkpoint"]),
        }

    def closure(self) -> LedgerClosure:
        """Close the integrated bus identities with
        :func:`~repro.validate.invariants.bus_closure`, the account the
        invariant checker shares."""
        if self._bus is None:
            raise RuntimeError("ledger is not attached to a system")
        d = self._deltas()
        hours = max(0.0, (self._clock.t - self._attach_t) / 3600.0)
        residual_solar, residual_load, tolerance = bus_closure(d, hours)
        battery_residual = (
            d["charge_terminal"]
            - d["battery_to_load"]
            - d["gassing"]
            - d["self_discharge"]
            - d["stored"]
        )
        ok = abs(residual_solar) <= tolerance and abs(residual_load) <= tolerance
        return LedgerClosure(
            ok=ok,
            residual_solar_wh=residual_solar,
            residual_load_wh=residual_load,
            battery_residual_wh=battery_residual,
            tolerance_wh=tolerance,
            hours=hours,
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {"edges": self.edges(), "closure": asdict(self.closure())}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
