"""Transmission network: topology, pi-model dynamics, impedances, admittance.

The network is a connected graph of AC voltage buses (shunt capacitance at
every bus) joined by series R-L lines. States are the bus voltage pairs and
line current pairs in the stationary frame.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import LoadDomainError, ValidationError
from .frame import ROT90, rotate_pairs


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
        for t in range(E.shape[1]):
            col = E[:, t]
            if np.sum(col == 1) != 1 or np.sum(col == -1) != 1 or np.sum(col != 0) != 2:
                raise ValidationError(
                    f"line {t} must have exactly one +1 and one -1 endpoint"
                )
        adj = (E @ E.T != 0).astype(int)
        n_comp, _ = connected_components(csr_matrix(adj), directed=False)
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


@dataclass
class NetworkState:
    v: np.ndarray    # 2*n_v bus voltages, stacked pairs
    i_T: np.ndarray  # 2*n_t line currents, stacked pairs


def incidence_expand(topology):
    """Incidence matrix lifted to planar pairs: E kron I_2."""
    return np.kron(topology.incidence, np.eye(2))


def network_rhs(params, topology, state, i_in):
    """(dv/dt, di_T/dt) of the bus-capacitor and line dynamics.

    ``i_in`` is the total current flowing out of each bus into machines and
    loads, stacked pairs of length 2*n_v.
    """
    E2 = incidence_expand(topology)
    v = np.asarray(state.v, dtype=float)
    i_T = np.asarray(state.i_T, dtype=float)
    i_in = np.asarray(i_in, dtype=float)
    if v.shape != (2 * topology.n_v,) or i_T.shape != (2 * topology.n_t,) \
            or i_in.shape != (2 * topology.n_v,):
        raise ValueError(
            f"dimension mismatch: v{v.shape}, i_T{i_T.shape}, i_in{i_in.shape} "
            f"for {topology.n_v} buses / {topology.n_t} lines"
        )
    dv = (-E2 @ i_T - i_in) / np.repeat(params.c, 2)
    di_T = (-np.repeat(params.r_T, 2) * i_T + E2.T @ v) / np.repeat(params.l_T, 2)
    return dv, di_T


def branch_impedance(params, omega0):
    """Block-diagonal series impedance of all lines at frequency omega0.

    Each 2x2 block is r I + omega0 l J; its determinant r^2 + omega0^2 l^2
    is positive, so the matrix is invertible for every real omega0.
    """
    return np.kron(np.diag(params.r_T), np.eye(2)) \
        + omega0 * np.kron(np.diag(params.l_T), ROT90)


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


def shunt_admittance(params, loads, v, omega0):
    """Block-diagonal bus shunt admittance: load admittance plus the
    capacitive susceptance omega0 c at each bus."""
    n_v = len(params.c)
    Y = np.zeros((2 * n_v, 2 * n_v))
    for k in range(n_v):
        vk = v[2 * k:2 * k + 2]
        try:
            g, b = loads[k].conductance(float(np.linalg.norm(vk)))
        except LoadDomainError as err:
            raise LoadDomainError(f"bus index {k}: {err}", bus=k) from err
        blk = g * np.eye(2) + (b + omega0 * params.c[k]) * ROT90
        Y[2 * k:2 * k + 2, 2 * k:2 * k + 2] = blk
    return Y


def admittance(params, topology, loads, v, omega0):
    """Full nodal admittance matrix: shunts plus incidence-weighted inverse
    branch impedances. Depends on v only through the load magnitudes, so it
    is constant for impedance-only loads.

    Each line's 2x2 admittance (r I + omega0 l J)^-1 is (r I - omega0 l J)
    / det with det = r^2 + omega0^2 l^2, so the line part is
    kron(E diag(r/det) E^T, I) - kron(E diag(omega0 l/det) E^T, J).
    """
    E = topology.incidence
    r, l = params.r_T, params.l_T
    det = r**2 + (omega0 * l) ** 2
    lines = np.kron((E * (r / det)) @ E.T, np.eye(2)) \
        - np.kron((E * (omega0 * l / det)) @ E.T, ROT90)
    return shunt_admittance(params, loads, v, omega0) + lines


def network_residual(params, topology, loads, i_s, v, i_T, omega0):
    """Stacked Kirchhoff residual of the rotating network equations.

    First 2*n_v rows: current balance at each bus (shunt + injections +
    line flows); last 2*n_t rows: voltage balance over each line. Zero
    exactly on network steady states at frequency omega0.
    """
    n_v, n_t = topology.n_v, topology.n_t
    i_s = np.asarray(i_s, dtype=float)
    if i_s.ndim != 1 or len(i_s) > 2 * n_v or len(i_s) % 2 != 0:
        raise ValueError(f"stator current vector has bad shape {i_s.shape}")
    E2 = incidence_expand(topology)

    i_l = np.zeros(2 * n_v)
    for k in range(n_v):
        vk = v[2 * k:2 * k + 2]
        try:
            i_l[2 * k:2 * k + 2] = loads[k].current(vk)
        except LoadDomainError as err:
            raise LoadDomainError(f"bus index {k}: {err}", bus=k) from err

    inj = np.zeros(2 * n_v)
    inj[:len(i_s)] = i_s
    top = i_l + omega0 * np.repeat(params.c, 2) * rotate_pairs(v) + inj + E2 @ i_T
    bottom = np.repeat(params.r_T, 2) * i_T \
        + omega0 * np.repeat(params.l_T, 2) * rotate_pairs(i_T) - E2.T @ v
    return np.concatenate([top, bottom])


def nodal_balance_residual(params, topology, loads, i_s, v, omega0):
    """Residual of the nodal current balance after eliminating line currents
    through the branch impedances: Y_N(v) v + (i_s, 0)."""
    n_v = topology.n_v
    i_s = np.asarray(i_s, dtype=float)
    inj = np.zeros(2 * n_v)
    inj[:len(i_s)] = i_s
    Y = admittance(params, topology, loads, v, omega0)
    return Y @ v + inj
