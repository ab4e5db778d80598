"""Transmission network: topology, parameters, admittance.

The network is a connected graph of AC voltage buses (shunt capacitance at
every bus) joined by series R-L lines. States are the bus voltage pairs and
line current pairs in the stationary frame.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .frame import ROT90


@dataclass(frozen=True)
class Topology:
    """Oriented incidence matrix of the bus/line graph.

    Entry (k, t) is +1 if line t leaves bus k, -1 if it enters. Each line
    joins exactly two distinct buses and the graph must be connected.
    """

    incidence: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.incidence)
        if E.ndim != 2 or E.shape[0] < 1 or E.shape[1] < 1:
            raise ValidationError(f"incidence matrix must be 2-D, got shape {E.shape}")
        if not np.all(np.isin(E, (-1, 0, 1))):
            raise ValidationError("incidence entries must be in {-1, 0, 1}")
        bad = np.flatnonzero((np.sum(E == 1, axis=0) != 1)
                             | (np.sum(E == -1, axis=0) != 1))
        if bad.size:
            raise ValidationError(
                f"line {bad[0]} must have exactly one +1 and one -1 endpoint"
            )
        n_comp = _count_components(E.shape[0], np.argmax(E == 1, axis=0),
                                   np.argmax(E == -1, axis=0))
        if n_comp != 1:
            raise ValidationError(
                f"network graph must be connected, found {n_comp} components"
            )
        object.__setattr__(self, "incidence", np.array(E, dtype=float))

    @property
    def n_v(self):
        return self.incidence.shape[0]

    @property
    def n_t(self):
        return self.incidence.shape[1]


def _count_components(n, heads, tails):
    """Connected components of the graph on n nodes with edges
    (heads[t], tails[t]), by union-find with path halving."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b in zip(heads.tolist(), tails.tolist()):
        root[find(a)] = find(b)
    return sum(find(a) == a for a in range(n))


@dataclass(frozen=True)
class NetworkParams:
    """Per-bus capacitances and per-line inductances/resistances (all > 0)."""

    c: np.ndarray
    l_T: np.ndarray
    r_T: np.ndarray

    def __post_init__(self):
        for name in ("c", "l_T", "r_T"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ValidationError(f"network parameter {name} must be positive")
            object.__setattr__(self, name, arr)
        if self.l_T.shape != self.r_T.shape:
            raise ValidationError("l_T and r_T must have one entry per line")


def incidence_expand(topology):
    """Incidence matrix lifted to planar pairs: E kron I_2."""
    return np.kron(topology.incidence, np.eye(2))


def solve_branch_currents(params, omega0, w):
    """Solve (branch impedance) @ i_T = w per 2x2 block in closed form."""
    r, l = params.r_T, params.l_T
    det = r**2 + (omega0 * l) ** 2
    wa, wb = w[0::2], w[1::2]
    ia = (r * wa + omega0 * l * wb) / det
    ib = (-omega0 * l * wa + r * wb) / det
    out = np.empty_like(w)
    out[0::2], out[1::2] = ia, ib
    return out


def line_admittance(params, topology, omega0):
    """Incidence-weighted inverse branch impedances, the part of the nodal
    admittance that does not depend on the voltages.

    Each line's 2x2 admittance (r I + omega0 l J)^-1 is (r I - omega0 l J)
    / det with det = r^2 + omega0^2 l^2, so the line part is
    kron(E diag(r/det) E^T, I) - kron(E diag(omega0 l/det) E^T, J).
    """
    E = topology.incidence
    r, l = params.r_T, params.l_T
    det = r**2 + (omega0 * l) ** 2
    return np.kron((E * (r / det)) @ E.T, np.eye(2)) \
        - np.kron((E * (omega0 * l / det)) @ E.T, ROT90)


def admittance(params, bank, v, omega0, lines):
    """Full nodal admittance matrix: ``lines``, the :func:`line_admittance`
    of the same network and frequency, plus the block-diagonal bus shunts.
    A bus's shunt is the admittance of its load in the
    :class:`~gridstate.loads.LoadBank` ``bank`` (``PowerSystem.load_bank``)
    at voltages ``v`` plus the capacitive susceptance omega0 c; over complex
    pairs its block for admittance g + j b is g I + b J. Depends on v only
    through the load magnitudes, so it is constant for impedance-only loads.
    """
    y = 1j * omega0 * params.c
    vc = np.ascontiguousarray(v, dtype=float).view(complex)
    y[bank.index] += bank.admittance(vc[bank.index])
    d = np.arange(0, 2 * len(y), 2)
    Y = lines.copy()
    Y[d, d] += y.real
    Y[d + 1, d + 1] += y.real
    Y[d + 1, d] += y.imag
    Y[d, d + 1] -= y.imag
    return Y
