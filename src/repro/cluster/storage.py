"""On-site storage for buffered raw data.

Each ProLiant carried a 500 GB SAS disk; Figure 6 shows "Storage" beside
the VM instances.  Raw data lands on disk as it arrives and is drained as
the pipeline processes it — so when power management parks the servers
for hours, the backlog accumulates *on disk*.  If the array fills, the
oldest unprocessed data is overwritten (surveillance-recorder semantics)
and counted as lost: the quantity the paper's video-surveillance
motivation cares about ("surveillance videos can be stored for extended
periods" only if the pipeline keeps up).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StorageReport:
    """Snapshot of the array's state."""

    capacity_gb: float
    used_gb: float
    dropped_gb: float

    @property
    def utilisation(self) -> float:
        return self.used_gb / self.capacity_gb if self.capacity_gb else 0.0


class StorageArray:
    """Fixed-capacity raw-data buffer with overwrite-oldest semantics.

    Parameters
    ----------
    capacity_gb:
        Total usable capacity (the prototype: 4 x 500 GB SAS).
    idle_w / active_w:
        Power draw of the array when idle vs streaming.
    """

    def __init__(
        self,
        capacity_gb: float = 2000.0,
        idle_w: float = 24.0,
        active_w: float = 40.0,
    ) -> None:
        if capacity_gb <= 0:
            raise ValueError("capacity_gb must be positive")
        if idle_w < 0 or active_w < idle_w:
            raise ValueError("need 0 <= idle_w <= active_w")
        self.capacity_gb = capacity_gb
        self.idle_w = idle_w
        self.active_w = active_w
        self.used_gb = 0.0
        self.dropped_gb = 0.0
        self._streaming = False

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def ingest(self, gb: float) -> float:
        """Store ``gb`` of newly arrived raw data.

        Returns the GB *dropped* to make room (overwrite-oldest), zero
        when everything fits.
        """
        if gb < 0:
            raise ValueError("gb must be non-negative")
        self._streaming = gb > 0
        self.used_gb += gb
        overflow = max(0.0, self.used_gb - self.capacity_gb)
        if overflow > 0:
            self.used_gb = self.capacity_gb
            self.dropped_gb += overflow
        return overflow

    def drain(self, gb: float) -> float:
        """Remove processed data; returns the GB actually removed."""
        if gb < 0:
            raise ValueError("gb must be non-negative")
        removed = min(gb, self.used_gb)
        self.used_gb -= removed
        self._streaming = self._streaming or removed > 0
        return removed

    @property
    def power_w(self) -> float:
        """Instantaneous draw; ``active`` while data moved this tick."""
        power = self.active_w if self._streaming else self.idle_w
        self._streaming = False
        return power

    def report(self) -> StorageReport:
        return StorageReport(
            capacity_gb=self.capacity_gb,
            used_gb=self.used_gb,
            dropped_gb=self.dropped_gb,
        )
