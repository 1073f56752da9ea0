"""Rule: every scalar-kernel state mutation has a fleet-kernel twin.

The vectorized fleet kernel (:mod:`repro.sim.fleet.kernel`) re-implements
the scalar per-site tick as structure-of-arrays numpy ops.  The two
kernels are validated numerically, but nothing stops a new piece of
scalar state from being added without a fleet counterpart — the fleet
run then silently diverges.  This rule closes that gap structurally:

1. it inventories every attribute mutated by scalar-kernel classes
   outside construction (``__init__``/``__post_init__``/``bind``/
   ``attach``), attributing writes through collaborator objects
   (``manager.duty = ...`` inside a control) to the enclosing class;
2. each ``Class.attr`` must appear either in :data:`FIELD_MAP` (with the
   fleet array(s) that mirror it) or in :data:`NOT_PORTED` (with a
   reviewed reason why the fleet kernel does not need it);
3. every mapped fleet array must actually be written somewhere in the
   fleet modules, and map entries that no longer correspond to a scalar
   mutation are reported as stale;
4. every int or float literal in a fleet module outside
   :data:`FREE_LITERALS` is reported: a copied parameter diverges silently
   when its scalar owner changes.  Values the fleet owns carry an allow;
5. every entry of :data:`LAW_MAP` names a fleet function and a scalar
   function that both exist, so the law-by-law test
   (``tests/sim/fleet/test_laws.py``) cannot walk a stale table.

The tables below are part of the reviewed contract: adding scalar state
means either porting it to the fleet kernel and extending
:data:`FIELD_MAP`, or recording in :data:`NOT_PORTED` why fleet runs can
ignore it; porting a scalar law means extending :data:`LAW_MAP` and the
law test together.
"""

from __future__ import annotations

import ast
from typing import ClassVar

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Project,
    Rule,
    attribute_root,
)
from repro.analysis.registry import register_rule

#: Modules that make up the scalar tick kernel.
SCALAR_MODULES: tuple[str, ...] = (
    "repro.battery.kibam",
    "repro.battery.unit",
    "repro.battery.wear",
    "repro.battery.charger",
    "repro.cluster.server",
    "repro.cluster.rack",
    "repro.cluster.allocator",
    "repro.cluster.vm",
    "repro.workloads.base",
    "repro.workloads.video",
    "repro.workloads.seismic",
    "repro.telemetry.metrics",
    "repro.power.bus",
    "repro.power.sensors",
    "repro.core.sensing",
    "repro.core.baseline",
    "repro.core.spatial",
    "repro.core.temporal",
    "repro.core.controller_base",
    "repro.core.system",
    "repro.policy.controls",
)

#: Modules holding the vectorized mirror.
FLEET_MODULES: tuple[str, ...] = (
    "repro.sim.fleet.kernel",
    "repro.sim.fleet.controllers",
)

#: Literals the fleet modules may write: identities, small counts and the
#: unit conversions (minute, kilo, hour, day).
FREE_LITERALS = frozenset({0, 1, 2, 60, 1000, 3600, 86400})

#: Constructors and wiring methods whose writes are initialization, not
#: per-tick state evolution.  ``bind*``/``attach*`` prefixes cover the
#: plant-wiring idiom (``bind``, ``attach_storage``, ...).
_INIT_METHODS = frozenset({"__init__", "__post_init__"})
_INIT_PREFIXES = ("bind", "attach")


def _is_wiring_method(name: str) -> bool:
    return name in _INIT_METHODS or name.startswith(_INIT_PREFIXES)

#: ``Class.attr`` (scalar) -> fleet array name(s) that mirror it.
FIELD_MAP: dict[str, tuple[str, ...]] = {
    "KiBaM.y1": ("y1",),
    "KiBaM.y2": ("y2",),
    "BatteryUnit.mode": ("mode",),
    "BatteryUnit.last_current": ("last_i",),
    "WearModel.discharge_ah": ("wear_dis",),
    "WearModel.weighted_ah": ("wear_wt",),
    "Server.state": ("sstate",),
    "Server.duty": ("duty_deci",),
    "Server.crashes": ("crashes",),
    "Server.on_off_cycles": ("on_off",),
    "Server._transition_left": ("stimer",),
    "ServerRack._last_compute_seconds": ("last_compute",),
    # The derived records and what they are derived for: the rack record
    # is the fleet's rack view, the bus's unit tuples its bank view, and
    # the record's compute seconds are for the batch's fixed dt.
    "ServerRack._record": ("_rack",),
    "ServerRack._dt": ("dt",),
    "PowerBus._bus_units": ("_bank",),
    # The bus integrals a RunSummary reports; the fleet sums the two
    # solar-use edges into one integral.
    "PowerBus.e_solar_wh": ("solar_wh",),
    "PowerBus.e_solar_to_load_wh": ("used_wh",),
    "PowerBus.e_charge_bus_wh": ("used_wh",),
    "PowerBus.e_curtailed_wh": ("curt_wh",),
    "NodeAllocator.target_vms": ("alloc_target",),
    "NodeAllocator.vm_ctrl_ops": ("vm_ops",),
    "VirtualMachine.running": ("placed",),
    "VirtualMachine.checkpointed": ("head_ckpt",),
    "Job.done_gb": ("head_done",),
    "Job.checkpoint_gb": ("head_ckpt",),
    "Job.completion_t": ("delay_sum", "delay_count"),
    "Workload.processed_gb": ("processed",),
    "Workload.deadline_total": ("dl_total",),
    "Workload.deadline_misses": ("dl_miss",),
    "Workload.crash_count": ("crash_count",),
    "Workload._since_checkpoint": ("_since_ckpt",),
    "MetricsCollector._uptime_s": ("uptime_s",),
    "MetricsCollector._stored_wh_integral": ("stored_int",),
    "MetricsCollector._load_energy_wh": ("load_wh",),
    "MetricsCollector._effective_energy_wh": ("eff_wh",),
    "MetricsCollector._min_voltage": ("min_v",),
    "MetricsCollector._since_voltage_sample": ("_since_vsample",),
    "MetricsCollector._elapsed": ("_elapsed",),
    "PowerBus.last_report": (
        "_rep_solar_to_load", "_rep_charge_power", "_rep_curtailed",
        "_metrics_demand",
    ),
    "Transducer._noise_buf": ("_blk_v", "_blk_i"),
    "BatteryTelemetry.voltage": ("sense_v",),
    "BatteryTelemetry.current": ("sense_i",),
    "BatteryTelemetry.soc_estimate": ("est",),
    "BatteryTelemetry.discharge_ah": ("sense_dis",),
    "BatteryTelemetry.rest_seconds": ("rest_s",),
    "BaselineController.vm_target": ("vm_target",),
    "BaselineController.buffer_online": ("buffer_online",),
    "BaselineController._trip_pending": ("trip_pending",),
    "BaselineController._since_upscale": ("since_up",),
    "BaselineController._elapsed": ("_ctl_elapsed",),
    "SpatialPolicy._elastic_bonus": ("elastic_bonus",),
    "PlantCoupler.shed_events": ("crash_count",),
    "PowerManager.solar_ema_w": ("ema",),
    "PowerManager.solar_ema_slow_w": ("ema_slow",),
    "DutyCapControl.duty": ("duty_deci",),
    "VmRetargetControl.vm_target": ("vm_target",),
    "ChargeCurrentCapControl.cap_fraction": ("charge_cap",),
}

#: ``Class.attr`` deliberately not mirrored, with the reviewed reason.
NOT_PORTED: dict[str, str] = {
    "BatteryUnit.gassing_ah": "ledger-only loss accumulator",
    "BatteryUnit.self_discharge_ah": "ledger-only loss accumulator",
    "BatteryUnit._tv_y1": "terminal-voltage memo; fleet recomputes per tick",
    "BatteryUnit._tv_current": "terminal-voltage memo; fleet recomputes per tick",
    "BatteryUnit._tv_value": "terminal-voltage memo; fleet recomputes per tick",
    "BatteryUnit._mdc_key": "max-discharge-current memo",
    "BatteryUnit._mdc_value": "max-discharge-current memo",
    "ServerRack._vm_counter": "VM identity naming only",
    "VideoSurveillance._accumulated_s": "arrival schedule precomputed (n_by_tick)",
    "VideoSurveillance._chunk_counter": "arrival schedule precomputed (n_by_tick)",
    "SeismicAnalysis._job_counter": "arrival schedule precomputed (arr_t)",
    "Workload.lost_gb": (
        "fleet deducts crash losses from `processed` directly; lost_gb is "
        "obs-only"
    ),
    "Workload.size_gb": "storage overflow (drop-oldest) not modeled in fleet",
    "Workload.checkpoint_gb": (
        "storage overflow (drop-oldest) not modeled in fleet"
    ),
    "Workload.dropped_gb": (
        "storage overflow (drop-oldest) not modeled in fleet"
    ),
    "MetricsCollector._checkpoint_energy_wh": "ledger-only accumulator",
    "PowerBus.e_battery_to_load_wh": "ledger edge, obs-only",
    "PowerBus.e_unserved_wh": "ledger edge, obs-only",
    "PowerBus.e_charge_terminal_wh": "ledger edge, obs-only",
    "PowerBus.e_demand_bus_wh": "ledger edge, obs-only",
    "PowerBus.e_server_wall_wh": "ledger edge, obs-only",
    "Transducer._noise_pos": "slot derived from tick index % noise_block",
    "BatteryTelemetry.gain": "fault injection; faulted cells are not batchable",
    "BaselineController.checkpoint_stops": "not a RunSummary field",
    "PlantCoupler.last_report": "scratch mirrored by the _rep_* arrays",
    "InSituSystem._steps_done": "sliced-run host bookkeeping",
    "InSituSystem._total_steps": "sliced-run host bookkeeping",
    "CheckpointShedControl._armed": "checkpoint_shed raises FleetUnsupported",
    "CheckpointShedControl.checkpoint_stops": (
        "checkpoint_shed raises FleetUnsupported"
    ),
    "CheckpointShedControl.vm_target": "checkpoint_shed raises FleetUnsupported",
}


#: Each law the fleet kernel restates, ``Class.function`` in a fleet
#: module -> its scalar twin, ``module:Class.function``.  The law test
#: compares every pair elementwise over inputs that reach each clamp.
LAW_MAP: dict[str, str] = {
    "_FleetBatch._kibam_step": "repro.battery.kibam:KiBaM.apply_current",
    "_FleetBatch._emf": "repro.battery.voltage:VoltageModel.emf",
    "_FleetBatch._terminal_voltage": "repro.battery.voltage:VoltageModel.terminal",
    "_FleetBatch._max_discharge_current":
        "repro.battery.unit:BatteryUnit.max_discharge_current",
    "_FleetBatch._acceptance_max_current":
        "repro.battery.acceptance:ChargeAcceptance.max_current",
    "_FleetBatch._acceptance_effective":
        "repro.battery.acceptance:ChargeAcceptance.effective_current",
    "_FleetBatch._record_discharge_wear": "repro.battery.wear:WearModel.record",
    "_FleetBatch._converter_input": "repro.power.converters:DCDCConverter.input_for",
    "_FleetBatch._server_power": "repro.cluster.server:Server.power_w",
}


def _defines(module: ModuleSource, qualname: str) -> bool:
    """Whether ``module`` defines ``Class.function`` (or a top-level
    ``function``), a method or a property alike."""
    body: list[ast.stmt] = module.tree.body
    *classes, name = qualname.split(".")
    for class_name in classes:
        found = [node for node in body
                 if isinstance(node, ast.ClassDef) and node.name == class_name]
        if not found:
            return False
        body = found[0].body
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == name
        for node in body
    )


def _scalar_mutations(
    module: ModuleSource,
) -> dict[str, tuple[ModuleSource, ast.AST]]:
    """``Class.attr`` -> first mutation site for one scalar module."""
    sites: dict[str, tuple[ModuleSource, ast.AST]] = {}
    for cls in module.tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _is_wiring_method(method.name):
                continue
            # Names bound to freshly-constructed objects are local return
            # values (e.g. ``decision = SpatialDecision()``); writes into
            # them are initialization of the result, not state evolution.
            local_objects: set[str] = set()
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_objects.add(target.id)
            local_objects.discard("self")
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for leaf in _leaves(target):
                            attr = _written_attr(leaf)
                            if attr is None:
                                continue
                            root = attribute_root(
                                leaf.value if isinstance(leaf, ast.Subscript)
                                else leaf
                            )
                            if (
                                isinstance(root, ast.Name)
                                and root.id in local_objects
                            ):
                                continue
                            key = f"{cls.name}.{attr}"
                            sites.setdefault(key, (module, node))
    return sites


def _leaves(target: ast.AST) -> list[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[ast.AST] = []
        for element in target.elts:
            out.extend(_leaves(element))
        return out
    if isinstance(target, ast.Starred):
        return _leaves(target.value)
    return [target]


def _written_attr(leaf: ast.AST) -> str | None:
    """Attribute name written by an assignment leaf (Name-rooted only)."""
    node = leaf
    if isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    if not isinstance(attribute_root(node), ast.Name):
        return None
    return node.attr


def _fleet_writes(module: ModuleSource) -> set[str]:
    """All array attribute names written anywhere in a fleet module."""
    written: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                for leaf in _leaves(target):
                    attr = _written_attr(leaf)
                    if attr is not None:
                        written.add(attr)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("fill", "put")
                and isinstance(func.value, ast.Attribute)
            ):
                written.add(func.value.attr)
    return written


@register_rule
class KernelParityRule(Rule):
    id: ClassVar[str] = "kernel-parity"
    description: ClassVar[str] = (
        "scalar tick-kernel state mutations must map to fleet kernel "
        "array ops (or a reviewed not-ported entry), and the fleet "
        "kernel types in no parameter"
    )

    def __init__(
        self,
        scalar_modules: tuple[str, ...] = SCALAR_MODULES,
        fleet_modules: tuple[str, ...] = FLEET_MODULES,
        field_map: dict[str, tuple[str, ...]] | None = None,
        not_ported: dict[str, str] | None = None,
        law_map: dict[str, str] | None = None,
    ) -> None:
        self.scalar_modules = scalar_modules
        self.fleet_modules = fleet_modules
        self.field_map = FIELD_MAP if field_map is None else field_map
        self.not_ported = NOT_PORTED if not_ported is None else not_ported
        self.law_map = LAW_MAP if law_map is None else law_map

    def check_module(self, module: ModuleSource) -> list[Finding]:
        if module.module not in self.fleet_modules:
            return []
        message = "numeric literal {!r} in the fleet kernel; read it from its scalar owner"
        return [
            module.finding(self.id, node, message.format(node.value))
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Constant)
            and type(node.value) in (int, float)
            and node.value not in FREE_LITERALS
        ]

    def check_project(self, project: Project) -> list[Finding]:
        scalar_mods = [
            mod for name in self.scalar_modules
            if (mod := project.get(name)) is not None
        ]
        fleet_mods = [
            mod for name in self.fleet_modules
            if (mod := project.get(name)) is not None
        ]
        if not scalar_mods or not fleet_mods:
            return []

        mutations: dict[str, tuple[ModuleSource, ast.AST]] = {}
        for mod in scalar_mods:
            for key, site in _scalar_mutations(mod).items():
                mutations.setdefault(key, site)
        fleet_written: set[str] = set()
        for mod in fleet_mods:
            fleet_written |= _fleet_writes(mod)

        findings: list[Finding] = []
        anchor = fleet_mods[0]
        for key in sorted(mutations):
            if key in self.not_ported:
                continue
            mapped = self.field_map.get(key)
            site_mod, site_node = mutations[key]
            if mapped is None:
                findings.append(site_mod.finding(
                    self.id, site_node,
                    f"scalar kernel mutates {key} with no fleet mapping; "
                    f"port it to repro.sim.fleet and extend FIELD_MAP, or "
                    f"record it in NOT_PORTED with a reason",
                ))
                continue
            missing = [arr for arr in mapped if arr not in fleet_written]
            if missing:
                findings.append(anchor.finding(
                    self.id, None,
                    f"{key} maps to fleet array(s) {', '.join(missing)} "
                    f"but no fleet module writes them",
                ))
        for key in sorted(self.field_map):
            if key not in mutations:
                findings.append(anchor.finding(
                    self.id, None,
                    f"stale FIELD_MAP entry {key}: no scalar kernel "
                    f"mutation matches it",
                ))
        for key in sorted(self.not_ported):
            if key not in mutations:
                findings.append(anchor.finding(
                    self.id, None,
                    f"stale NOT_PORTED entry {key}: no scalar kernel "
                    f"mutation matches it",
                ))
        for fleet_law, scalar_law in sorted(self.law_map.items()):
            module_name, _, qualname = scalar_law.partition(":")
            scalar_mod = project.get(module_name)
            if not any(_defines(mod, fleet_law) for mod in fleet_mods):
                missing = f"no fleet module defines {fleet_law}"
            elif scalar_mod is None or not _defines(scalar_mod, qualname):
                missing = f"{scalar_law} does not exist"
            else:
                continue
            findings.append(anchor.finding(
                self.id, None, f"stale LAW_MAP entry {fleet_law}: {missing}",
            ))
        return findings
