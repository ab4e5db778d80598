"""Static shunt load models compatible with rotating steady states.

Every shipped model draws a current of the form (g(|v|) I + b(|v|) J) v,
i.e. a shunt admittance whose conductance g and susceptance b depend on the
bus voltage only through its magnitude. This is exactly the class that
commutes with planar rotations, which is what lets a load ride a rotating
steady state without distorting it. Three standard parametrizations are
provided: constant impedance, constant current, and constant power; they
are the exponential load model with exponents 0, 1 and 2 (Kundur, Power
System Stability and Control, 1994, sec. 7.1).
"""

from dataclasses import dataclass

import numpy as np

from .errors import LoadDomainError, ValidationError
from .frame import ROT90, rot

DEFAULT_VOLTAGE_FLOOR = 1e-3


@dataclass(frozen=True)
class Load:
    """One shunt load. Use the classmethod constructors.

    Every kind is an exponential load i = |v|^-k (a_g I + a_b J) v with
    ``coeffs`` (a_g, a_b) and integer ``exponent`` k: none k=0 (0, 0),
    impedance k=0 (g, b), current k=1 (c_g, c_b), power k=2 (P, -Q).
    ``v_min`` is the domain floor of the singular kinds (k > 0), where the
    admittance blows up as |v| -> 0.
    """

    kind: str = "none"
    coeffs: tuple = (0.0, 0.0)
    exponent: int = 0
    v_min: float = 0.0

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def impedance(cls, g, b):
        if g < 0.0:
            raise ValidationError(f"impedance load must dissipate: g={g!r} < 0")
        return cls("impedance", (float(g), float(b)))

    @classmethod
    def constant_current(cls, c_g, c_b, v_min=DEFAULT_VOLTAGE_FLOOR):
        if c_g < 0.0:
            raise ValidationError(f"current load must dissipate: c_g={c_g!r} < 0")
        if v_min <= 0.0:
            raise ValidationError(f"current load needs v_min > 0, got {v_min!r}")
        return cls("current", (float(c_g), float(c_b)), 1, float(v_min))

    @classmethod
    def constant_power(cls, p, q, v_min=DEFAULT_VOLTAGE_FLOOR):
        if p < 0.0:
            raise ValidationError(f"power load must dissipate: P={p!r} < 0")
        if v_min <= 0.0:
            raise ValidationError(f"power load needs v_min > 0, got {v_min!r}")
        return cls("power", (float(p), -float(q)), 2, float(v_min))

    def conductance(self, vnorm):
        """(g, b) of the shunt admittance at voltage magnitude ``vnorm``."""
        if vnorm < self.v_min:
            raise LoadDomainError(
                f"constant-{self.kind} load undefined at |v|={vnorm:.6e} "
                f"below its floor v_min={self.v_min:.6e}"
            )
        scale = vnorm**self.exponent
        return self.coeffs[0] / scale, self.coeffs[1] / scale

    def current(self, v):
        """Load current drawn at bus voltage ``v`` (flows out of the bus)."""
        g, b = self.conductance(float(np.linalg.norm(v)))
        return g * np.asarray(v, dtype=float) + b * (ROT90 @ v)

    def power(self, v):
        """(P, Q) drawn at bus voltage ``v``."""
        vv = float(v[0] ** 2 + v[1] ** 2)
        g, b = self.conductance(float(np.sqrt(vv)))
        return g * vv, -b * vv


def load_current(load, v):
    return load.current(v)


def load_power(load, v):
    return load.power(v)


def equivariance_defect(load, v, n_samples=360):
    """Max over a rotation grid of |i_l(R(phi) v) - R(phi) i_l(v)|.

    Zero (to rounding) exactly when the load commutes with rotations; a
    model that does not (e.g. an anisotropic test load) produces an O(|v|)
    defect. Accepts any object with a ``current(v)`` method.
    """
    base = load.current(v)
    worst = 0.0
    for phi in np.linspace(0.0, 2.0 * np.pi, int(n_samples), endpoint=False):
        R = rot(phi)
        defect = float(np.linalg.norm(load.current(R @ v) - R @ base))
        worst = max(worst, defect)
    return worst
