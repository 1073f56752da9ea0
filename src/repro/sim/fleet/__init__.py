"""Vectorized fleet kernel: batch-simulate many in-situ sites per op.

The scalar engine steps one site at a time at ~21k ticks/s; provisioning
sweeps and Monte Carlo studies need thousands of sites.  This package
holds a structure-of-arrays kernel that steps N independent systems per
numpy op — batched trace irradiance, KiBaM two-well Euler updates,
charger/bus balance, server power and SoC/wear/LVD state — with per-site
RNG streams seeded identically to the scalar path and divergent control
branches handled via boolean masks.

The scalar engine stays the bit-exact reference: the
:class:`FleetValidator` gates the vectorized path against golden-matrix
run summaries within the invariant tolerance, and the ``fleet`` backend
in :func:`repro.experiments.runner.run_cells` falls back to pool/serial
execution when a cell uses unsupported features
(:class:`FleetUnsupported`).
"""

from __future__ import annotations

from repro.sim.fleet.kernel import (
    FleetUnsupported,
    SiteSpec,
    simulate_fleet,
)
from repro.sim.fleet.validator import FleetValidator

__all__ = [
    "FleetUnsupported",
    "FleetValidator",
    "SiteSpec",
    "simulate_fleet",
]
