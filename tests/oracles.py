"""Reference implementations the tests compare the package against.

These are the straightforward per-bus and per-sample forms: the network
dynamics and Kirchhoff residuals written out with dense matrices, the
load currents one bus at a time, and the equivariance probe one rotation
at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from gridstate.errors import LoadDomainError
from gridstate.frame import ROT90, rot, rotate_pairs
from gridstate.loads import Load, LoadBank
from gridstate.network import admittance, incidence_expand


@dataclass
class NetworkState:
    v: np.ndarray    # 2*n_v bus voltages, stacked pairs
    i_T: np.ndarray  # 2*n_t line currents, stacked pairs


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


def scalar_load_current(load, v):
    """Current of one load at one voltage pair, from the exponential load
    formula i = |v|^-k (a_g I + a_b J) v in scalar arithmetic; objects
    other than a plain :class:`Load` (subclasses included) are asked for
    their own ``current``."""
    if type(load) is not Load:
        return np.asarray(load.current(np.asarray(v, dtype=float)))
    a, b = float(v[0]), float(v[1])
    mag = math.hypot(a, b)
    if mag < load.v_min:
        raise LoadDomainError(f"|v|={mag:.6e} below v_min={load.v_min:.6e}")
    scale = mag**load.exponent
    g, s = load.coeffs[0] / scale, load.coeffs[1] / scale
    return np.array([g * a - s * b, g * b + s * a])


def scalar_load_currents(loads, v, bus_ids=None):
    """Per-bus load currents stacked into a 2*n_v vector, one bus at a time.
    A floor violation names the bus by ``bus_ids`` (default: index)."""
    if bus_ids is None:
        bus_ids = list(range(len(loads)))
    i_l = np.zeros(2 * len(loads))
    for k, load in enumerate(loads):
        try:
            i_l[2 * k:2 * k + 2] = scalar_load_current(load, v[2 * k:2 * k + 2])
        except LoadDomainError as err:
            raise LoadDomainError(f"bus {bus_ids[k]!r}: {err}",
                                  bus=bus_ids[k]) from err
    return i_l


def network_residual(params, topology, loads, i_s, v, i_T, omega0):
    """Stacked Kirchhoff residual of the rotating network equations.

    First 2*n_v rows: current balance at each bus (shunt + injections +
    line flows); last 2*n_t rows: voltage balance over each line. Zero
    exactly on network steady states at frequency omega0.
    """
    n_v = topology.n_v
    i_s = np.asarray(i_s, dtype=float)
    if i_s.ndim != 1 or len(i_s) > 2 * n_v or len(i_s) % 2 != 0:
        raise ValueError(f"stator current vector has bad shape {i_s.shape}")
    E2 = incidence_expand(topology)
    inj = np.zeros(2 * n_v)
    inj[:len(i_s)] = i_s
    top = scalar_load_currents(loads, v) \
        + omega0 * np.repeat(params.c, 2) * rotate_pairs(v) + inj + E2 @ i_T
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
    Y = admittance(params, topology, LoadBank(loads, range(n_v)), v, omega0)
    return Y @ v + inj


def looped_equivariance_defect(load, v, n_samples=360):
    """Max over a rotation grid of |i_l(R(phi) v) - R(phi) i_l(v)|, one
    rotation matrix and two ``current`` calls per grid angle."""
    v = np.asarray(v, dtype=float)
    base = load.current(v)
    worst = 0.0
    for phi in np.linspace(0.0, 2.0 * np.pi, int(n_samples), endpoint=False):
        R = rot(phi)
        defect = float(np.linalg.norm(load.current(R @ v) - R @ base))
        worst = max(worst, defect)
    return worst
