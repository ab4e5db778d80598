"""Transmission network: the edge list, its parameters, admittance.

The network is a connected graph of AC voltage buses (shunt capacitance at
every bus) joined by series R-L lines, each given by its two endpoints.
States are the bus voltage pairs and line current pairs in the stationary
frame. The oriented incidence E (+1 at each line's head, -1 at its tail)
is never built: products with it are gathers and scatters of endpoints.

At a steady state every pair rotates at omega0, so the network equations
are complex phasor equations on the pairs read as alpha + j beta (see
:mod:`gridstate.frame`): a line's impedance is r + j omega0 l, a bus's
shunt j omega0 c plus its load's admittance, and the nodal admittance is
the complex n_v x n_v matrix of :func:`admittance`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Network:
    """Bus/line graph and parameters, checked once at construction.

    Line t joins bus ``heads[t]`` to bus ``tails[t]``, two distinct indices
    into the n_v = len(c) buses, and the graph must be connected; parallel
    lines are allowed. ``c`` holds the bus capacitances, ``r_T`` and ``l_T``
    the line resistances and inductances, all positive and finite.
    """

    heads: np.ndarray
    tails: np.ndarray
    c: np.ndarray
    r_T: np.ndarray
    l_T: np.ndarray

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name), dtype=float)
                  for name in ("c", "l_T", "r_T")}
        for name, arr in arrays.items():
            if arr.ndim != 1 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ValidationError(f"network parameter {name} must be positive")
        ends = {name: np.asarray(getattr(self, name)) for name in ("heads", "tails")}
        n_v, n_t = len(arrays["c"]), ends["heads"].size
        if n_t == 0:
            raise ValidationError("network must have at least one line")
        for name, arr in (*ends.items(), *arrays.items()):
            if name != "c" and arr.shape != (n_t,):
                raise ValidationError(f"{name} must have one entry per line "
                                      f"({n_t}), got shape {arr.shape}")
        for name, arr in ends.items():
            if arr.dtype.kind not in "iu":
                raise ValidationError(f"{name} must hold integer bus indices")
            bad = np.flatnonzero((arr < 0) | (arr >= n_v))
            if bad.size:
                raise ValidationError(f"line {bad[0]} endpoint {arr[bad[0]]} "
                                      f"is not a bus index in [0, {n_v})")
            arrays[name] = arr.astype(np.intp)
        heads, tails = arrays["heads"], arrays["tails"]
        loops = np.flatnonzero(heads == tails)
        if loops.size:
            raise ValidationError(f"line {loops[0]} joins bus "
                                  f"{heads[loops[0]]} to itself")
        n_comp = _count_components(n_v, heads, tails)
        if n_comp != 1:
            raise ValidationError(
                f"network graph must be connected, found {n_comp} components"
            )
        self.__dict__.update(arrays)

    @property
    def n_v(self):
        return len(self.c)

    @property
    def n_t(self):
        return len(self.heads)

    @cached_property
    def scatter(self):
        """Flat float positions of each line's (h, h), (t, t), (h, t) and
        (t, h) entries, real then imaginary, in an n_v x n_v complex matrix,
        where :func:`admittance` scatters the lines with one ``bincount``;
        built on first use and kept, as it depends on the edge list alone."""
        h, t, n = self.heads, self.tails, self.n_v
        flat = np.stack((h, t), axis=1) @ [[n + 1, 0, n, 1], [0, n + 1, 1, n]]
        return (2 * flat[..., None] + [0, 1]).ravel()

    def relabel(self, order):
        """This network with its bus ``order[k]`` renumbered k, unchecked:
        renumbering keeps every property checked above (and no index)."""
        label, new = np.argsort(order), object.__new__(type(self))
        vars(new).update(heads=label[self.heads], tails=label[self.tails],
                         c=self.c[order], r_T=self.r_T, l_T=self.l_T)
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


def admittance(network, y_load, omega0):
    """Complex nodal admittance matrix (n_v x n_v): the lines' complex
    Laplacian E diag(1 / (r + j omega0 l)) E^T plus the bus shunts on the
    diagonal.

    A line with admittance y = 1 / z, head h and tail t adds y at (h, h)
    and (t, t) and -y at (h, t) and (t, h). One weighted ``bincount`` of
    these entries' (real, imaginary) pairs at :attr:`Network.scatter` sums
    them in line order, so parallel lines add up. A bus's shunt is the
    capacitive susceptance j omega0 c plus its load admittance in
    ``y_load``: the :class:`~gridstate.loads.LoadBank` admittance at the
    bus voltages (``PowerSystem.load_bank.admittance``), or its constant
    part ``LoadBank.y_linear``.
    """
    n = network.n_v
    y = 1.0 / (network.r_T + 1j * omega0 * network.l_T)
    pairs = (y[:, None] * [1.0, 1.0, -1.0, -1.0]).view(float).ravel()
    sums = np.bincount(network.scatter, pairs, 2 * n * n)
    Y = sums.view(complex).reshape(n, n)
    Y.reshape(-1)[::n + 1] += 1j * omega0 * network.c + y_load
    return Y
