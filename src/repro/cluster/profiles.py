"""Server hardware profiles.

``XEON_DL380`` models the prototype's HP ProLiant nodes; ``CORE_I7``
models the "state-of-the-art low-power server node" of Table 7 (Intel
Core i7-2720 class, ~42-46 W under load).  Per-workload speed differences
between the two (the i7 is ~2x faster on dedup, about even on x264, and
~0.66x on bayes) live with the micro-benchmark definitions; the profile
carries a generic relative speed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServerProfile:
    """Static power/performance envelope of a server model.

    Attributes
    ----------
    idle_w / peak_w:
        Wall power at zero and full utilisation.
    vm_slots:
        VMs the hypervisor hosts per machine (the prototype used 2).
    boot_s:
        Power-on to serving time, including VM state restore.
    save_s:
        Checkpoint-save plus shutdown time.  ``boot_s + save_s`` is the
        paper's ~15-minute service interruption per On/Off cycle.
    relative_speed:
        Generic throughput multiplier versus the Xeon baseline.
    """

    name: str
    idle_w: float
    peak_w: float
    vm_slots: int = 2
    boot_s: float = 660.0
    save_s: float = 240.0
    relative_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.peak_w <= 0:
            raise ValueError("power figures must be positive")
        if self.peak_w <= self.idle_w:
            raise ValueError("peak_w must exceed idle_w")
        if self.vm_slots <= 0:
            raise ValueError("vm_slots must be positive")
        if self.boot_s < 0 or self.save_s < 0:
            raise ValueError("transition times must be non-negative")
        if self.relative_speed <= 0:
            raise ValueError("relative_speed must be positive")

    def power_at(self, utilisation: float) -> float:
        """Wall power at a given utilisation in [0, 1]."""
        u = utilisation
        if u < 0.0:
            u = 0.0
        elif u > 1.0:
            u = 1.0
        idle = self.idle_w
        return idle + (self.peak_w - idle) * u


#: The prototype's HP ProLiant node (dual Xeon 3.2 GHz, 16 G RAM).
XEON_DL380 = ServerProfile(name="xeon-dl380", idle_w=280.0, peak_w=450.0)

#: Table 7's low-power node (Core i7-2720 class).
CORE_I7 = ServerProfile(
    name="core-i7",
    idle_w=18.0,
    peak_w=90.0,
    boot_s=420.0,
    save_s=180.0,
    relative_speed=1.0,
)
