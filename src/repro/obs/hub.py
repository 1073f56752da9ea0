"""Observability hub: one object wiring the three instruments together.

An :class:`Observability` bundles a metrics registry, a span tracer and a
decision log, and :meth:`Observability.attach` fastens them onto an
assembled :class:`~repro.core.system.InSituSystem`:

* the tracer is handed to the engine (sampled tick-loop spans) and the
  controller (sense/decide sub-spans);
* the decision log is the system's own: ``build_system`` constructs the
  controller and the plant coupler with it, so ``attach`` has nothing
  to rewire for decisions;
* gauges for every component's interesting state — battery SoC/voltage,
  rack demand, workload backlog, PLC scan count, controller duty and VM
  target — are registered as *collection-time* callables, so the tick
  loop pays nothing for them;
* an :class:`~repro.obs.ledger.EnergyLedger` snapshots the component
  energy accumulators at attach time (joule-level flow edges + closure);
* an :class:`~repro.obs.alerts.AlertEngine` observer streams rule
  evaluations over live plant state and records each alert in the
  decision log.

Everything here only reads simulation state.  Attaching observability to
a run never changes its same-seed trajectory (proven bit-identical in the
golden harness and ``benchmarks/test_perf_engine.py``).
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.alerts import AlertEngine
from repro.obs.decisions import DecisionLog
from repro.obs.ledger import EnergyLedger
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import DEFAULT_STRIDE, SpanTracer


class Observability:
    """Per-run observability bundle: a fresh registry, tracer, decision
    log, energy ledger and alert engine.

    Parameters
    ----------
    trace_stride:
        Tick sampling stride of the span tracer.
    """

    def __init__(self, trace_stride: int = DEFAULT_STRIDE) -> None:
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(stride=trace_stride)
        self.decisions = DecisionLog(registry=self.registry)
        #: Energy ledger; bound to a system by :meth:`attach`.
        self.ledger = EnergyLedger(registry=self.registry)
        #: Alert engine; registered as an engine observer by :meth:`attach`.
        self.alerts = AlertEngine(self.decisions)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system) -> "Observability":
        """Instrument an assembled system in place; returns self.

        ``build_system(..., observability=...)`` calls this on a system
        it built around :attr:`decisions`, the log its controller and
        plant coupler already record into.
        """
        system.engine.tracer = self.tracer
        system.controller.tracer = self.tracer
        system.plant.tracer = self.tracer
        self.tracer.bind_registry(self.registry)
        self._register_system_gauges(system)
        self.ledger.attach(system)
        self.alerts.attach(system)
        return self

    def _register_system_gauges(self, system) -> None:
        # Each gauge closes over the part it reads, never the system or
        # its engine: the system holds this bundle, and the engine the
        # alert engine, so either would close a reference cycle.
        gauge = self.registry.gauge
        clock = system.engine.clock
        gauge("engine.ticks", "ticks stepped so far").set_function(
            lambda: clock.step_index
        )
        gauge("engine.sim_seconds", "simulated seconds").set_function(lambda: clock.t)

        source = system.source
        gauge("solar.available_w", "PV-bus budget").set_function(
            lambda: source.available_power_w
        )

        bank = system.bank
        gauge("bank.stored_wh", "energy across all cabinets").set_function(
            lambda: bank.stored_energy_wh
        )
        gauge("bank.mean_soc").set_function(lambda: bank.mean_soc)
        gauge("bank.mean_voltage").set_function(lambda: bank.mean_voltage)
        gauge("bank.discharge_ah", "cumulative discharge").set_function(
            lambda: bank.total_discharge_ah()
        )
        for unit in bank:
            gauge("battery.soc", unit=unit.name).set_function(lambda u=unit: u.soc)
            gauge("battery.voltage", unit=unit.name).set_function(
                lambda u=unit: u.terminal_voltage
            )

        rack = system.rack
        gauge("rack.demand_w").set_function(lambda: rack.demand_w)
        gauge("rack.running_vms").set_function(lambda: rack.running_vm_count())
        gauge("rack.on_off_cycles").set_function(lambda: rack.total_on_off_cycles())

        workload = system.workload
        gauge("workload.backlog_gb").set_function(lambda: workload.backlog_gb)
        gauge("workload.processed_gb").set_function(lambda: workload.stats.processed_gb)
        gauge("workload.crashes").set_function(lambda: workload.stats.crash_count)

        controller = system.controller
        gauge("controller.vm_target").set_function(lambda: controller.vm_target)
        gauge("controller.duty").set_function(lambda: getattr(controller, "duty", 1.0))
        gauge("controller.power_ctrl_times").set_function(lambda: controller.power_ctrl_times)
        gauge("controller.vm_ctrl_times").set_function(lambda: controller.vm_ctrl_times)
        gauge("controller.checkpoint_stops").set_function(
            lambda: getattr(controller, "checkpoint_stops", 0)
        )

        plc = system.telemetry.plc
        gauge("plc.scan_count").set_function(lambda: plc.scan_count)
        plant = system.plant
        gauge("plant.shed_events").set_function(lambda: plant.shed_events)

        mppt = getattr(source, "mppt", None)
        if mppt is not None:
            gauge("solar.irradiance_wm2").set_function(
                lambda: getattr(source, "irradiance_wm2", 0.0)
            )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, out_dir) -> dict[str, Path]:
        """Write the snapshot files; returns {artifact: path}."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "metrics_jsonl": out / "metrics.jsonl",
            "metrics_prom": out / "metrics.prom",
            "decisions_jsonl": out / "decisions.jsonl",
            "spans_folded": out / "spans.folded",
            "ledger_json": out / "ledger.json",
            "alerts_jsonl": out / "alerts.jsonl",
        }
        self.registry.write_jsonl(paths["metrics_jsonl"])
        paths["metrics_prom"].write_text(self.registry.to_prometheus(), encoding="utf-8")
        self.decisions.write_jsonl(paths["decisions_jsonl"])
        paths["spans_folded"].write_text(self.tracer.to_folded(), encoding="utf-8")
        paths["ledger_json"].write_text(self.ledger.to_json(), encoding="utf-8")
        self.alerts.write_jsonl(paths["alerts_jsonl"])
        return paths
