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

import math
from dataclasses import dataclass

import numpy as np

from .errors import LoadDomainError, ValidationError

DEFAULT_VOLTAGE_FLOOR = 1e-3


@dataclass(frozen=True)
class Load:
    """One shunt load. Use the classmethod constructors.

    Every kind is an exponential load i = |v|^-k (a_g I + a_b J) v with
    ``coeffs`` (a_g, a_b) and integer ``exponent`` k: none k=0 (0, 0),
    impedance k=0 (g, b), current k=1 (c_g, c_b), power k=2 (P, -Q).
    ``v_min`` is the domain floor of the singular kinds (k > 0), where the
    admittance blows up as |v| -> 0. All three must be finite.
    """

    kind: str = "none"
    coeffs: tuple = (0.0, 0.0)
    exponent: int = 0
    v_min: float = 0.0

    def __post_init__(self):
        (g, b), finite = self.coeffs, math.isfinite
        if not (finite(g) and finite(b) and finite(self.v_min)):
            raise ValidationError(f"{self.kind} load needs finite coeffs "
                                  f"{self.coeffs!r} and v_min {self.v_min!r}")

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


class LoadBank:
    """The loads of a system in solve order, held as per-bus arrays, and
    the only evaluation of the shipped loads.

    Over complex bus voltages v = v_alpha + j v_beta every shipped load is
    i = y |v|^-k v with admittance y = a_g + j a_b, so the bank keeps y, k
    and v_min for every bus (zeros where no shipped load sits) and evaluates
    all buses in one numpy expression. Any other object, a subclass of
    :class:`Load` included, is a custom load: it brings its own
    ``current(v)`` method, is kept in ``custom`` and is called on its own.

    The first ``n_g`` buses hold the machines. The bank splits the others,
    the load buses, by their balance: a bus with no load or an impedance
    load (k = 0) is linear in its voltage, one with k > 0 nonlinear.
    ``solve_order`` lists the machine buses, the ``n_kept - n_g``
    nonlinear load buses and then the linear ones, the order in which the
    network solve eliminates the linear buses; ``y_linear`` is y with the
    k > 0 loads left out, ``y_nonlinear`` the rest, y - y_linear.
    """

    def __init__(self, loads, bus_ids, n_g):
        self.custom = [(k, ld) for k, ld in enumerate(loads)
                       if ld is not None and type(ld) is not Load]
        shipped = [ld if type(ld) is Load else Load.none() for ld in loads]
        self.y = np.array([complex(*ld.coeffs) for ld in shipped], complex)
        self.k = np.array([ld.exponent for ld in shipped], dtype=float)
        self.v_min = np.array([ld.v_min for ld in shipped], dtype=float)
        # Impedance only: y at every voltage. The vector field skips such a
        # bank, whose loads are rows of its operator; the network solve and
        # the residual skip the magnitude work, which pays on small systems.
        self.constant = not (np.any(self.k) or np.any(self.v_min))
        self._named = [(bus, ld.kind) for bus, ld in zip(bus_ids, shipped)]
        linear = self.k == 0
        self.y_linear = self.y * linear
        self.y_nonlinear = self.y - self.y_linear
        linear[:n_g] = False  # a stable sort keeps each group in bus order
        self.solve_order = linear.argsort(kind="stable")
        self.n_kept = len(linear) - int(np.count_nonzero(linear))

    def admittance(self, vc, y=None):
        """y |v|^-k per bus at the complex bus voltages ``vc`` (..., n_v),
        y the bank's unless given. Raises :class:`LoadDomainError` naming
        the first bus whose voltage is below its load's floor."""
        y = self.y if y is None else y
        if self.constant:
            return y
        mag = np.abs(vc)
        below = mag < self.v_min
        if np.count_nonzero(below):
            j = np.nonzero(below)[-1][0]
            bus, kind = self._named[j]
            raise LoadDomainError(
                f"bus {bus!r}: constant-{kind} load undefined at "
                f"|v|={mag[below][0]:.6e} below its floor "
                f"v_min={self.v_min[j]:.6e}", bus=bus)
        return y / mag**self.k


def equivariance_defect(load, v, n_samples=360):
    """Max over a rotation grid of |i_l(R(phi) v) - R(phi) i_l(v)|.

    Zero (to rounding) exactly when the load commutes with rotations; a
    model that does not (e.g. an anisotropic test load) produces an O(|v|)
    defect. Accepts any object whose ``current`` takes voltage columns of
    shape (2, ...): the rotated voltages go to it as one (2, n_samples, ...)
    batch, whose first sample (phi = 0) is v itself. ``v`` is one voltage
    pair, or voltage columns of shape (2, ...) with one defect per column.
    """
    v = np.asarray(v, dtype=float)
    phi = np.linspace(0.0, 2.0 * np.pi, int(n_samples), endpoint=False)
    c = np.cos(phi).reshape((-1,) + (1,) * (v.ndim - 1))
    s = np.sin(phi).reshape(c.shape)
    i = np.asarray(load.current(np.stack([c * v[0] - s * v[1],
                                          s * v[0] + c * v[1]])), dtype=float)
    i0 = i[:, 0]
    return np.max(np.hypot(i[0] - (c * i0[0] - s * i0[1]),
                           i[1] - (s * i0[0] + c * i0[1])), axis=0)
