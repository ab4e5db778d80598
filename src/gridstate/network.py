"""Transmission network: topology, parameters, admittance.

The network is a connected graph of AC voltage buses (shunt capacitance at
every bus) joined by series R-L lines. States are the bus voltage pairs and
line current pairs in the stationary frame.

At a steady state every pair rotates at omega0, so the network equations
are complex phasor equations on the pairs read as alpha + j beta (see
:mod:`gridstate.frame`): a line's impedance is r + j omega0 l, a bus's
shunt j omega0 c plus its load's admittance, and the nodal admittance is
the complex n_v x n_v matrix of :func:`admittance`.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .frame import as_complex


@dataclass(frozen=True)
class Topology:
    """Oriented incidence matrix of the bus/line graph.

    Entry (k, t) is +1 if line t leaves bus k, -1 if it enters. Each line
    joins exactly two distinct buses and the graph must be connected. The
    checks run on ``heads`` and ``tails``, each line's +1 and -1 bus.
    """

    incidence: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.incidence)
        if E.ndim != 2 or E.shape[0] < 1 or E.shape[1] < 1:
            raise ValidationError(f"incidence matrix must be 2-D, got shape {E.shape}")
        buses, lines = np.nonzero(E)
        head, tail = E[buses, lines] == 1, E[buses, lines] == -1
        if not np.all(head | tail):
            raise ValidationError("incidence entries must be in {-1, 0, 1}")
        n_v, n_t = E.shape
        bad = np.flatnonzero((np.bincount(lines[head], minlength=n_t) != 1)
                             | (np.bincount(lines[tail], minlength=n_t) != 1))
        if bad.size:
            raise ValidationError(
                f"line {bad[0]} must have exactly one +1 and one -1 endpoint"
            )
        heads, tails = np.empty((2, n_t), dtype=int)
        heads[lines[head]], tails[lines[tail]] = buses[head], buses[tail]
        n_comp = _count_components(n_v, heads, tails)
        if n_comp != 1:
            raise ValidationError(
                f"network graph must be connected, found {n_comp} components"
            )
        self.__dict__.update(incidence=np.array(E, dtype=float), heads=heads,
                             tails=tails)

    @property
    def n_v(self):
        return self.incidence.shape[0]

    @property
    def n_t(self):
        return self.incidence.shape[1]

    def relabel(self, order):
        """This topology with its bus ``order[k]`` renumbered k, unchecked:
        renumbering keeps every property checked above."""
        label, new = np.argsort(order), copy.copy(self)
        vars(new).update(incidence=self.incidence[order],
                         heads=label[self.heads], tails=label[self.tails])
        return new


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

    def relabel(self, order):
        """Bus ``order[k]``'s capacitance moved to bus k, unchecked."""
        new = copy.copy(self)
        vars(new)["c"] = self.c[order]
        return new


def solve_branch_currents(params, omega0, w):
    """Line current pairs i_T with (r + j omega0 l) i_T = w on every line,
    for the stacked voltage-drop pairs ``w``."""
    z = params.r_T + 1j * omega0 * params.l_T
    return (as_complex(w) / z).view(float)


def line_admittance(params, topology, omega0):
    """Complex Laplacian E diag(1 / (r + j omega0 l)) E^T of the lines, the
    part of the nodal admittance that does not depend on the voltages."""
    E = topology.incidence
    y = 1.0 / (params.r_T + 1j * omega0 * params.l_T)
    # Two real products: a complex one would cast E.T and run a complex GEMM.
    return (E * y.real) @ E.T + 1j * ((E * y.imag) @ E.T)


def admittance(params, y_load, omega0, lines, out=None):
    """Complex nodal admittance matrix (n_v x n_v): ``lines``, the
    :func:`line_admittance` of the same network and frequency, plus the bus
    shunts on the diagonal. A bus's shunt is the capacitive susceptance
    j omega0 c plus its load admittance in ``y_load``, the
    :class:`~gridstate.loads.LoadBank` admittance at the bus voltages
    (``PowerSystem.load_bank.admittance``). ``out``, when given, is a
    C-contiguous matrix equal to ``lines`` off the diagonal, such as the
    previous return value; only its diagonal is written, through a strided
    view.
    """
    Y = lines.copy() if out is None else out
    np.add(lines.diagonal(), 1j * omega0 * params.c + y_load,
           out=Y.reshape(-1)[::len(Y) + 1])
    return Y
