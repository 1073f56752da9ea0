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
execution when numpy is missing or a cell uses unsupported features.

numpy is declared as the optional extra ``repro[fleet]``; every entry
point degrades gracefully when it is absent.
"""

from __future__ import annotations

NUMPY_HINT = (
    "the fleet kernel requires numpy — install the optional extra with "
    "`pip install 'repro[fleet]'`, or run with --backend pool|serial"
)


def numpy_available() -> bool:
    """Whether the vectorized backend can run in this interpreter."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def require_numpy() -> None:
    """Raise a descriptive ImportError when numpy is missing."""
    if not numpy_available():
        raise ImportError(NUMPY_HINT)


from repro.sim.fleet.kernel import (  # noqa: E402
    FleetUnsupported,
    SiteSpec,
    simulate_fleet,
)
from repro.sim.fleet.validator import FleetValidator  # noqa: E402

__all__ = [
    "FleetUnsupported",
    "FleetValidator",
    "NUMPY_HINT",
    "SiteSpec",
    "numpy_available",
    "require_numpy",
    "simulate_fleet",
]
