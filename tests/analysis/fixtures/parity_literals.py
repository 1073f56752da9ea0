"""Fixture: numbers typed into a fleet module (4 findings, 1 allowed).

Copies of scalar parameters fire; identities, small counts, unit
conversions, booleans and a reasoned allow do not.
"""

CAPACITY_AH = 35.0
TAPER = (0.85, 4.0)
BLOCK = 256  # repro: allow[kernel-parity] fleet-owned buffer length


class TankBatch:
    def __init__(self, n, np, params):
        self.cap = params.capacity_ah
        self.level = np.zeros((n, 2))
        self.rate_h = 1.0 / 3600.0
        self.span_s = 2 * 86400.0 - 60
        self.neg = -1
        self.flag = True
        self.eps = 1e-9
