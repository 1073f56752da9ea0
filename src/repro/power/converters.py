"""DC/DC conversion and power distribution losses.

Conversion efficiency follows the familiar bathtub-inverted curve: poor at
very light load (fixed losses dominate), peaking in the 40-80 % band, and
sagging slightly at full load (ohmic losses).  The PDU adds a small fixed
overhead per powered server port.
"""

from __future__ import annotations

#: Ohmic loss at rated load as a fraction of rating (grows with load²).
OHMIC_LOSS_FRACTION = 0.02
#: Load fraction beyond which the ohmic loss stops growing.
MAX_LOAD_FRACTION = 1.2


class DCDCConverter:
    """Loss model for the battery-bus to server-bus converter.

    Parameters
    ----------
    rated_w:
        Rated output power.
    peak_efficiency:
        Efficiency at the sweet spot (~50 % load).
    fixed_loss_w:
        No-load standby loss.
    """

    def __init__(
        self,
        rated_w: float = 2000.0,
        peak_efficiency: float = 0.955,
        fixed_loss_w: float = 12.0,
    ) -> None:
        if rated_w <= 0:
            raise ValueError("rated_w must be positive")
        if not 0.5 < peak_efficiency < 1.0:
            raise ValueError("peak_efficiency must be in (0.5, 1)")
        if fixed_loss_w < 0:
            raise ValueError("fixed_loss_w must be non-negative")
        self.rated_w = rated_w
        self.peak_efficiency = peak_efficiency
        self.fixed_loss_w = fixed_loss_w

    def efficiency(self, output_w: float) -> float:
        """Conversion efficiency when delivering ``output_w``."""
        if output_w <= 0:
            return 0.0
        load = min(output_w / self.rated_w, MAX_LOAD_FRACTION)
        ohmic = OHMIC_LOSS_FRACTION * load * load * self.rated_w
        losses = self.fixed_loss_w + ohmic
        base = output_w / (output_w + losses)
        return min(base, self.peak_efficiency)

    def input_for(self, output_w: float) -> float:
        """Input power required to deliver ``output_w``."""
        if output_w < 0:
            raise ValueError("output_w must be non-negative")
        if output_w < 1e-6:
            # Vanishing loads are dominated by the standby loss; also
            # guards the division (efficiency underflows to zero there).
            return self.fixed_loss_w
        return output_w / self.efficiency(output_w)


class PowerDistributionUnit:
    """Rack PDU with per-port overhead and capacity limit."""

    def __init__(self, ports: int = 8, port_overhead_w: float = 2.0,
                 capacity_w: float = 2400.0) -> None:
        if ports <= 0:
            raise ValueError("ports must be positive")
        if port_overhead_w < 0:
            raise ValueError("port_overhead_w must be non-negative")
        if capacity_w <= 0:
            raise ValueError("capacity_w must be positive")
        self.ports = ports
        self.port_overhead_w = port_overhead_w
        self.capacity_w = capacity_w

    def draw(self, server_loads_w: list[float]) -> float:
        """Total input draw for the given per-server loads.

        Raises if the PDU is over-subscribed (breaker limit) or has too few
        ports — provisioning errors the assembly should catch early.
        """
        if len(server_loads_w) > self.ports:
            raise ValueError(f"{len(server_loads_w)} servers > {self.ports} ports")
        total = 0.0
        active = 0
        for w in server_loads_w:
            if w > 0:
                total += w
                active += 1
        total += self.port_overhead_w * active
        if total > self.capacity_w:
            raise ValueError(
                f"PDU over capacity: {total:.0f} W > {self.capacity_w:.0f} W"
            )
        return total
