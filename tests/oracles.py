"""Reference implementations the tests compare the package against.

These are the straightforward per-bus and per-sample forms: the network
dynamics, Kirchhoff residuals and line and nodal admittances written out
with dense matrices on an incidence built one line at a time from the
endpoints, the rotation generators and the bus and field selectors as
dense matrices, a shipped load's current from its (g, b) in real pairs
and the load currents one bus at a time, the equivariance probe one
rotation at a time, the steady field and the rotating reference written
block by block with the machines' 5x5 turn, the invariance defect as a
central difference of the residual, one machine at a time through its
full inductance matrix L(theta) with a Cholesky solve at every call, the
torque and induced voltage of that matrix with their flow-derivative
identities, the planar rotation as a 2x2 matrix, the classical RK4 step
of a generic field dx/dt = f(x), the drift metrics one trajectory sample
at a time, the closed-form machine recovery one machine at a time in 2x2
rotation matrices, the Newton network solve on the full balance, with no
Kron reduction, that rebuilds the admittance and the whole Jacobian at
every iteration, from its own generator voltage pairs and to its own
branch currents (dense incidence drops over each line's impedance), and
the system assembly that checks each machine on its own and every
reordered component again.
Helpers with no caller in the package live here too: the (P, Q) a load
draws, a load's rotation commutator and the invariance defect with custom
loads built on it (the certificate probes custom loads by rotation
instead), the package's array recovery run for one machine, and one
machine's row of an array recovery.
"""

import logging
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from gridstate.errors import (InfeasibleSteadyStateError, LoadDomainError,
                              SolverError, ValidationError)
from gridstate.frame import (MACHINE_ROT90, ROT90, as_complex, real_blocks,
                             rotate_pairs)
from gridstate.loads import Load
from gridstate.machine import ParamViolation, inductance_matrix, stack_params
from gridstate.network import Network, admittance
from gridstate.simulate import DriftMetrics, reference_trajectory
from gridstate.steady_state import (DEGENERACY_BAND, RECOVERY_TOL,
                                    MachineRecovery, NetworkSolution,
                                    _recover)
from gridstate.system import (PowerSystem, _machines, residual,
                              steady_field, tolerance_scale)

log = logging.getLogger("oracles")


def _require_finite(theta):
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"angle must be finite, got {theta!r}")


def rot(theta):
    """2x2 rotation matrix by ``theta`` radians."""
    _require_finite(theta)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rvec(theta):
    """Unit vector (cos theta, sin theta)."""
    _require_finite(theta)
    return np.array([np.cos(theta), np.sin(theta)])


@dataclass
class NetworkState:
    v: np.ndarray    # 2*n_v bus voltages, stacked pairs
    i_T: np.ndarray  # 2*n_t line currents, stacked pairs


def block_rotation_generator(n):
    """I_n kron ROT90, the real form of j I_n: simultaneous 90-degree
    rotation of n planar pairs."""
    if n < 1:
        raise ValueError(f"need at least one planar pair, got n={n}")
    return real_blocks(1j * np.eye(int(n)))


def machine_rotation_generator(n_g):
    """I_ng kron MACHINE_ROT90 for a stacked machine current vector."""
    if n_g < 1:
        raise ValueError(f"need at least one machine, got n_g={n_g}")
    return np.kron(np.eye(int(n_g)), MACHINE_ROT90)


def field_indicator(n_g):
    """Matrix placing the excitation voltages into the winding equations."""
    return np.kron(np.eye(n_g), np.eye(5, 1, -2))  # 1 at the i_f row


def stator_indicator(n_g):
    """Matrix selecting the stator pairs from stacked machine currents."""
    return np.kron(np.eye(n_g), np.eye(5, 2))


def bus_indicator(n_g, n_v):
    """Maps stacked machine currents to bus current injections (2n_v x 5n_g):
    stator pairs land on the machine buses, load buses get zero."""
    top = stator_indicator(n_g).T
    return np.vstack([top, np.zeros((2 * (n_v - n_g), 5 * n_g))])


def dense_incidence(network):
    """The n_v x n_t oriented incidence E of a network's edge list: +1 at
    each line's head, -1 at its tail, one line at a time."""
    E = np.zeros((network.n_v, network.n_t))
    for t, (a, b) in enumerate(zip(network.heads, network.tails)):
        E[a, t] += 1.0
        E[b, t] -= 1.0
    return E


def dense_line_admittance(network, omega0):
    """The complex line Laplacian E diag(1 / (r + j omega0 l)) E^T as one
    dense complex product."""
    E = dense_incidence(network)
    return E @ np.diag(1.0 / (network.r_T + 1j * omega0 * network.l_T)) @ E.T


def dense_admittance(network, y_load, omega0):
    """The nodal admittance: :func:`dense_line_admittance` plus the bus
    shunts j omega0 c + y_load as a dense diagonal matrix."""
    return dense_line_admittance(network, omega0) + np.diag(
        1j * omega0 * network.c + y_load)


def network_rhs(network, state, i_in):
    """(dv/dt, di_T/dt) of the bus-capacitor and line dynamics.

    ``i_in`` is the total current flowing out of each bus into machines and
    loads, stacked pairs of length 2*n_v.
    """
    E2 = np.kron(dense_incidence(network), np.eye(2))
    v = np.asarray(state.v, dtype=float)
    i_T = np.asarray(state.i_T, dtype=float)
    i_in = np.asarray(i_in, dtype=float)
    if v.shape != (2 * network.n_v,) or i_T.shape != (2 * network.n_t,) \
            or i_in.shape != (2 * network.n_v,):
        raise ValueError(
            f"dimension mismatch: v{v.shape}, i_T{i_T.shape}, i_in{i_in.shape} "
            f"for {network.n_v} buses / {network.n_t} lines"
        )
    dv = (-E2 @ i_T - i_in) / np.repeat(network.c, 2)
    di_T = (-np.repeat(network.r_T, 2) * i_T + E2.T @ v) \
        / np.repeat(network.l_T, 2)
    return dv, di_T


def branch_impedance(network, omega0):
    """Block-diagonal series impedance of all lines at frequency omega0.

    Each 2x2 block is r I + omega0 l J; its determinant r^2 + omega0^2 l^2
    is positive, so the matrix is invertible for every real omega0.
    """
    return np.kron(np.diag(network.r_T), np.eye(2)) \
        + omega0 * np.kron(np.diag(network.l_T), ROT90)


def branch_currents(network, omega0, w):
    """Line current pairs i_T with (r + j omega0 l) i_T = w, one complex
    division per line, for the stacked voltage-drop pairs ``w``."""
    z = network.r_T + 1j * omega0 * network.l_T
    return (np.asarray(w, dtype=float).view(complex) / z).view(float)


def generator_pairs(spec):
    """The prescribed machine-bus voltage pairs (mag cos, mag sin),
    stacked in machine order."""
    mag, angle = spec.gen_voltage_mag, spec.gen_voltage_angle
    return np.stack((mag * np.cos(angle), mag * np.sin(angle)), 1).ravel()


def _conductance(load, vnorm):
    """(g, b) of a shipped load's shunt admittance at voltage magnitude(s)
    ``vnorm``."""
    low = np.min(vnorm)
    if low < load.v_min:
        raise LoadDomainError(f"constant-{load.kind} load undefined at "
                              f"|v|={low:.6e} below its floor "
                              f"v_min={load.v_min:.6e}")
    scale = vnorm**load.exponent
    return load.coeffs[0] / scale, load.coeffs[1] / scale


def load_current(load, v):
    """Current a shipped load draws at bus voltage ``v`` (flows out of the
    bus), i = (g I + b J) v with (g, b) = |v|^-k coeffs, in real pairs.

    ``v`` is one voltage pair or a batch of voltage columns of shape
    (2, ...); the current has the same shape.
    """
    v = np.asarray(v, dtype=float)
    g, b = _conductance(load, np.sqrt(v[0] ** 2 + v[1] ** 2))
    return g * v + b * np.stack([-v[1], v[0]])


class OracleLoad:
    """A shipped load as a custom load: ``current`` is :func:`load_current`,
    for the probes that take any object with that method."""

    def __init__(self, load):
        self.load = load

    def current(self, v):
        return load_current(self.load, v)


def load_power(load, v):
    """(P, Q) a shipped load draws at one bus voltage pair ``v``."""
    vv = float(v[0] ** 2 + v[1] ** 2)
    g, b = _conductance(load, float(np.sqrt(vv)))
    return g * vv, -b * vv


def scalar_load_currents(loads, v, bus_ids=None):
    """Per-bus load currents stacked into a 2*n_v vector, one bus at a time:
    :func:`load_current` for a plain :class:`Load`, the object's own
    ``current`` for any other (subclasses included). A floor violation
    names the bus by ``bus_ids`` (default: index)."""
    if bus_ids is None:
        bus_ids = list(range(len(loads)))
    i_l = np.zeros(2 * len(loads))
    for k, load in enumerate(loads):
        pair = np.asarray(v[2 * k:2 * k + 2], dtype=float)
        try:
            i_l[2 * k:2 * k + 2] = (load_current(load, pair)
                                    if type(load) is Load
                                    else load.current(pair))
        except LoadDomainError as err:
            raise LoadDomainError(f"bus {bus_ids[k]!r}: {err}",
                                  bus=bus_ids[k]) from err
    return i_l


def network_residual(network, loads, i_s, v, i_T, omega0):
    """Stacked Kirchhoff residual of the rotating network equations.

    First 2*n_v rows: current balance at each bus (shunt + injections +
    line flows); last 2*n_t rows: voltage balance over each line. Zero
    exactly on network steady states at frequency omega0.
    """
    n_v = network.n_v
    i_s = np.asarray(i_s, dtype=float)
    if i_s.ndim != 1 or len(i_s) > 2 * n_v or len(i_s) % 2 != 0:
        raise ValueError(f"stator current vector has bad shape {i_s.shape}")
    E2 = np.kron(dense_incidence(network), np.eye(2))
    inj = np.zeros(2 * n_v)
    inj[:len(i_s)] = i_s
    top = scalar_load_currents(loads, v) \
        + omega0 * np.repeat(network.c, 2) * rotate_pairs(v) + inj + E2 @ i_T
    bottom = np.repeat(network.r_T, 2) * i_T \
        + omega0 * np.repeat(network.l_T, 2) * rotate_pairs(i_T) - E2.T @ v
    return np.concatenate([top, bottom])


def nodal_balance_residual(network, loads, i_s, v, omega0):
    """Residual of the nodal current balance after eliminating line currents
    through the branch impedances Z: the bus rows of
    :func:`network_residual` at i_T = Z^-1 E2^T v, with E2 = E kron I_2,
    written out with dense real matrices."""
    n_v = network.n_v
    E2 = np.kron(dense_incidence(network), np.eye(2))
    v = np.asarray(v, dtype=float)
    i_s = np.asarray(i_s, dtype=float)
    inj = np.zeros(2 * n_v)
    inj[:len(i_s)] = i_s
    i_T = np.linalg.solve(branch_impedance(network, omega0), E2.T @ v)
    shunts = omega0 * np.kron(np.diag(network.c), ROT90)
    return scalar_load_currents(loads, v) + shunts @ v + inj + E2 @ i_T


def balance_jacobian(sys, Y, v):
    """Jacobian of the load-bus rows of the nodal balance Y(v) v, read as
    pairs, with respect to the load-bus voltage pairs ``v``, given the
    complex admittance Y = Y(v).

    A load of exponent k draws i = y |v|^-k v, whose derivative on the pair
    is the real form of y |v|^-k minus k i v^T / |v|^2. The first term is
    the load's entry of Y, so the Jacobian is the real form of Y on the
    load buses minus one rank-one 2x2 block per loaded bus.
    """
    n_g = sys.n_g
    k = sys.load_bank.k[n_g:]
    i_l = sys.load_currents(v)[2 * n_g:].reshape(-1, 2)
    v_l = v[2 * n_g:].reshape(-1, 2)
    # Only k > 0 loads have a floor that keeps |v| > 0; the rest add nothing.
    w = np.divide(k, np.sum(v_l ** 2, axis=1), out=np.zeros_like(k),
                  where=k > 0)
    jac = real_blocks(Y[n_g:, n_g:])
    d = np.arange(len(k))
    jac.reshape(len(k), 2, len(k), 2)[d, :, d, :] -= \
        w[:, None, None] * i_l[:, :, None] * v_l[:, None, :]
    return jac


def reference_iterates(sys, spec, linear_start=False):
    """The Newton iterates of the full network balance, with a fresh
    admittance and a full :func:`balance_jacobian` at every iteration, from
    a flat start: every load bus at the mean machine-bus voltage magnitude.
    Yields (v, balance, residual) at each iterate until the package's
    convergence test holds, with no iteration cap.

    With ``linear_start`` the load buses with no load or an impedance load
    start instead at the voltages that balance their own rows, one dense
    solve, where the package's Kron-reduced solve starts; its iterates are
    then the package's from the first one on."""
    n_g, omega0 = sys.n_g, spec.omega0
    v = np.zeros(2 * sys.n_v)
    v[:2 * n_g] = generator_pairs(spec)
    v[2 * n_g::2] = float(np.mean(spec.gen_voltage_mag))
    vc = as_complex(v)
    if linear_start:
        linear = [b for b in range(n_g, sys.n_v) if sys.loads[b].exponent == 0]
        kept = [b for b in range(sys.n_v) if b not in linear]
        Y = admittance(sys.network, sys.load_bank.admittance(vc), omega0)
        vc[linear] = np.linalg.solve(Y[np.ix_(linear, linear)],
                                     -Y[np.ix_(linear, kept)] @ vc[kept])
    while True:
        Y = admittance(sys.network, sys.load_bank.admittance(vc), omega0)
        balance = (Y @ vc).view(float)
        res = float(np.max(np.abs(balance[2 * n_g:]), initial=0.0))
        yield v.copy(), balance, res
        if res <= spec.newton.tol * max(1.0, float(np.max(np.abs(v)))):
            return
        jac = balance_jacobian(sys, Y, v)
        v[2 * n_g:] -= np.linalg.solve(jac, balance[2 * n_g:])


def reference_solve_network(sys, spec):
    """The network solve from :func:`reference_iterates`, with the package's
    iteration cap."""
    n_g, omega0, history = sys.n_g, spec.omega0, []
    for iterations, (v, balance, res) in enumerate(
            reference_iterates(sys, spec), start=1):
        history.append(res)
        if iterations == spec.newton.max_iter:
            break
    if res > spec.newton.tol * max(1.0, float(np.max(np.abs(v)))):
        raise SolverError(f"no convergence in {iterations} iterations")
    E2 = np.kron(dense_incidence(sys.network), np.eye(2))
    i_T = branch_currents(sys.network, omega0, E2.T @ v)
    return NetworkSolution(i_s=-balance[:2 * n_g], v=v, i_T=i_T,
                           iterations=iterations, residual_history=history)


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


@dataclass
class MachineState:
    theta: float
    omega: float
    i_s: np.ndarray  # stator current pair (i_alpha, i_beta)
    i_f: float
    i_d: float
    i_q: float

    def currents(self):
        """Winding currents as a 5-vector (i_alpha, i_beta, i_f, i_d, i_q)."""
        return np.array([self.i_s[0], self.i_s[1], self.i_f, self.i_d, self.i_q])


def electrical_torque(p, theta, i):
    """Torque as the quadratic form 1/2 i^T (L J + J^T L) i of the
    inductance matrix at angle theta."""
    L = inductance_matrix(p, theta)
    A = L @ MACHINE_ROT90 + MACHINE_ROT90.T @ L
    return 0.5 * float(i @ A @ i)


def induced_voltage(p, theta, omega, i):
    """omega (L J^T + J L) i with the inductance matrix at angle theta."""
    L = inductance_matrix(p, theta)
    return omega * (L @ MACHINE_ROT90.T + MACHINE_ROT90 @ L) @ i


def torque_flow_derivative_defect(p, theta, i, omega0, h=1e-6):
    """The electrical torque is constant along the rotating flow: its
    directional derivative in (theta, currents) along (omega0, stator
    rotation) cancels. Central differences on both pieces."""
    d_theta = (electrical_torque(p, theta + h, i)
               - electrical_torque(p, theta - h, i)) / (2.0 * h) * omega0
    w = omega0 * (MACHINE_ROT90 @ i)
    d_i = (electrical_torque(p, theta, i + h * w)
           - electrical_torque(p, theta, i - h * w)) / (2.0 * h)
    gauge = max(1.0, abs(d_theta), abs(d_i))
    return abs(d_theta + d_i) / gauge


def induced_voltage_flow_derivative_defect(p, theta, i, omega0, h=1e-6):
    """Along the rotating flow the induced winding voltage itself rotates:
    its directional derivative equals the stator rotation applied to it."""
    omega = omega0
    d_theta = (induced_voltage(p, theta + h, omega, i)
               - induced_voltage(p, theta - h, omega, i)) / (2.0 * h) * omega0
    w = omega0 * (MACHINE_ROT90 @ i)
    d_i = (induced_voltage(p, theta, omega, i + h * w)
           - induced_voltage(p, theta, omega, i - h * w)) / (2.0 * h)
    rhs = omega0 * (MACHINE_ROT90 @ induced_voltage(p, theta, omega, i))
    gauge = max(1.0, float(np.max(np.abs(d_theta))), float(np.max(np.abs(d_i))),
                float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(d_theta + d_i - rhs))) / gauge


def machine_rhs(p, state, v_term, tau_m, v_f):
    """Time derivative of the 7 machine states (theta, omega, currents).

    The terminal pair enters the stator rows, the excitation voltage the
    field row; damper windings are short-circuited. The current derivative
    solves the winding flux balance through a Cholesky factorization of
    L(theta), recomputed each call.
    """
    i = state.currents()
    L = inductance_matrix(p, state.theta)
    tau_e = electrical_torque(p, state.theta, i)
    v_ind = induced_voltage(p, state.theta, state.omega, i)

    applied = np.array([v_term[0], v_term[1], v_f, 0.0, 0.0])
    rhs = -p.resistance_diag() * i + applied - v_ind
    di = cho_solve(cho_factor(L, lower=True), rhs)

    dtheta = state.omega
    domega = (tau_m - p.d * state.omega - tau_e) / p.m
    return np.concatenate(([dtheta, domega], di))


def machine_residual(p, state, v_term, tau_m, v_f, omega0):
    """Rotating steady-state residual of one machine's 7 rows (frequency,
    torque, windings) through L(theta)."""
    i = state.currents()
    L = inductance_matrix(p, state.theta)
    applied = np.array([v_term[0], v_term[1], v_f, 0.0, 0.0])
    windings = p.resistance_diag() * i + omega0 * L @ MACHINE_ROT90 @ i \
        - applied + induced_voltage(p, state.theta, state.omega, i)
    torque = p.d * state.omega + electrical_torque(p, state.theta, i) - tau_m
    return np.concatenate(([omega0 - state.omega, torque], windings))


def machine_inputs(sys, k, x, u):
    """Machine k's parameters, :class:`MachineState`, terminal voltage pair,
    mechanical torque and field voltage at system state x and input u."""
    lay = sys.layout
    theta, omega, i_flat, v, _ = lay.split(x)
    tau_m, v_f = lay.split_input(u)
    i = i_flat.reshape(sys.n_g, 5)
    state = MachineState(
        theta=float(theta[k]), omega=float(omega[k]),
        i_s=i[k, :2].copy(), i_f=float(i[k, 2]),
        i_d=float(i[k, 3]), i_q=float(i[k, 4]),
    )
    return (sys.machines[k], state, v[2 * k:2 * k + 2], float(tau_m[k]),
            float(v_f[k]))


def single_machine_rhs(sys, k, x, u):
    """Machine k's dynamics evaluated through :func:`machine_rhs`."""
    return machine_rhs(*machine_inputs(sys, k, x, u))


def system_field(sys, x, u):
    """Full vector field: machine rows one machine at a time through
    :func:`machine_rhs`, network rows through :func:`network_rhs`."""
    lay = sys.layout
    _, _, i_flat, v, i_T = lay.split(x)
    rows = np.array([single_machine_rhs(sys, k, x, u) for k in range(sys.n_g)])
    i_in = scalar_load_currents(sys.loads, v)
    i_in[:2 * sys.n_g] += i_flat.reshape(sys.n_g, 5)[:, :2].ravel()
    dv, di_T = network_rhs(sys.network, NetworkState(v, i_T), i_in)
    return lay.pack(rows[:, 0], rows[:, 1], rows[:, 2:], dv, di_T)


def dense_field_rows(sys):
    """The vector field's linear part as a dense n_x x n_x matrix on the
    dense incidence E2 (pairs): angles read their speeds, speeds -d/m, bus
    pairs -1/c times the machine injections, the impedance loads'
    ``real_blocks(diag(y_linear))`` v (y_linear: each shipped k = 0
    load's g + j b, read from ``sys.loads``) and E2 i_T, line pairs
    (E2^T v - r i_T) / l; the winding rows are zero."""
    lay, net, p = sys.layout, sys.network, sys.params
    E2 = real_blocks(dense_incidence(net))
    c2, l2, r2 = (np.repeat(a, 2) for a in (net.c, net.l_T, net.r_T))
    y_linear = [complex(*ld.coeffs) if type(ld) is Load and ld.exponent == 0
                else 0.0 for ld in sys.loads]
    A = np.zeros((sys.n_x, sys.n_x))
    A[lay.sl_theta, lay.sl_omega] = np.eye(sys.n_g)
    A[lay.sl_omega, lay.sl_omega] = np.diag(-(p.d / p.m))
    A[lay.sl_v, lay.sl_i] = -bus_indicator(sys.n_g, sys.n_v) / c2[:, None]
    A[lay.sl_v, lay.sl_v] = (-1.0 / c2)[:, None] * real_blocks(np.diag(y_linear))
    A[lay.sl_v, lay.sl_iT] = -E2 / c2[:, None]
    A[lay.sl_iT, lay.sl_v] = E2.T / l2[:, None]
    A[lay.sl_iT, lay.sl_iT] = np.diag(-(r2 / l2))
    return A


def dense_network_field(sys, x, u):
    """The vector field at states (..., n_x) with its speed and network rows
    as dense incidence products on whole blocks, and its winding rows and
    torque from the package's rotor-frame machines."""
    lay, net, p = sys.layout, sys.network, sys.params
    _, omega, i_flat, v, i_T = lay.split(x)
    _, di, torque = _machines(sys, x, omega, u)
    E2 = real_blocks(dense_incidence(net))
    c2, l2, r2 = (np.repeat(a, 2) for a in (net.c, net.l_T, net.r_T))
    bus = (i_flat @ bus_indicator(sys.n_g, sys.n_v).T + i_T @ E2.T
           + sys.load_currents(v))
    return lay.pack(omega, (u[:sys.n_g] - torque - p.d * omega) / p.m, di,
                    -bus / c2, (v @ E2 - r2 * i_T) / l2)


def system_residual(sys, x, u, omega0):
    """Full residual: machine rows through :func:`machine_residual`,
    network rows through :func:`network_residual`."""
    lay = sys.layout
    _, _, i_flat, v, i_T = lay.split(x)
    rows = np.array([machine_residual(*machine_inputs(sys, k, x, u), omega0)
                     for k in range(sys.n_g)])
    i_s = i_flat.reshape(sys.n_g, 5)[:, :2].ravel()
    net = network_residual(sys.network, sys.loads, i_s, v, i_T, omega0)
    return lay.pack(rows[:, 0], rows[:, 1], rows[:, 2:], net[:2 * sys.n_v],
                    net[2 * sys.n_v:])


def blockwise_steady_field(sys, x, omega0):
    """Steady field of states (..., n_x) packed from its blocks: angles at
    omega0, speeds 0, each machine's currents turned by MACHINE_ROT90, bus
    voltage and line current pairs by J, all times omega0."""
    lay = sys.layout
    _, _, i_flat, v, i_T = lay.split(x)
    i = i_flat.reshape(i_flat.shape[:-1] + (sys.n_g, 5))
    return lay.pack(omega0, 0.0, omega0 * i @ MACHINE_ROT90.T,
                    omega0 * rotate_pairs(v), omega0 * rotate_pairs(i_T))


def blockwise_reference_trajectory(sys, x0, omega0, t):
    """Rotating reference from x0 at time(s) t packed from its blocks: the
    stator, bus and line pairs each turned by cos + sin J on their own."""
    lay = sys.layout
    theta0, omega_b, i0, v0, iT0 = lay.split(np.asarray(x0, dtype=float))
    t = np.asarray(t, dtype=float)
    c, s = np.cos(omega0 * t)[..., None], np.sin(omega0 * t)[..., None]
    blocks = i0.reshape(sys.n_g, 5)
    i = np.tile(blocks, t.shape + (1, 1))
    stator = blocks[:, :2].ravel()
    i[..., :2] = (c * stator + s * rotate_pairs(stator)).reshape(
        t.shape + (sys.n_g, 2))
    return lay.pack(theta0 + omega0 * t[..., None], omega_b, i,
                    c * v0 + s * rotate_pairs(v0),
                    c * iT0 + s * rotate_pairs(iT0))


def central_invariance_defect(sys, x, u, omega0, h):
    """Max-norm of the central difference of the residual along the steady
    field f = steady_field(sys, x, omega0),
    (rho(x + h f) - rho(x - h f)) / 2h, through :func:`system_residual`."""
    f = steady_field(sys, x, omega0)
    d = system_residual(sys, x + h * f, u, omega0) \
        - system_residual(sys, x - h * f, u, omega0)
    return float(np.max(np.abs(d))) / (2.0 * h)


def rotation_commutator(load, v):
    """D i(v)[J v] - J i(v) at one voltage pair, zero for a load that
    commutes with rotations: a central difference along J v, whose step
    t |v| is relative to the bus voltage, in one (2, 3) ``current`` call."""
    v = np.asarray(v, dtype=float)
    jv, t = np.array([-v[1], v[0]]), 6e-6  # t about eps**(1/3)
    i = np.asarray(load.current(np.column_stack([v + t * jv, v - t * jv, v])),
                   dtype=float)
    return (i[:, 0] - i[:, 1]) / (2.0 * t) - np.array([-i[1, 2], i[0, 2]])


def custom_invariance_defect(sys, x, u, omega0):
    """Max-norm of the derivative of the residual along the steady field
    at one state x with custom loads: |omega0| times the largest stator,
    bus or line pair entry of the package residual, where each custom
    bus's pair reads |J rho_k + rotation_commutator| instead."""
    rho = residual(sys, x, u, omega0)
    lay = sys.layout
    drift = np.abs(rho[lay.pair_rows])  # bus k's pair at 2 (n_g + k)
    for k, load in sys.load_bank.custom:
        at, row = 2 * (sys.n_g + k), lay.sl_v.start + 2 * k
        drift[at:at + 2] = np.abs(rotate_pairs(rho[row:row + 2])
                                  + rotation_commutator(load, x[row:row + 2]))
    return abs(omega0) * float(drift.max())


def mass_matrix(sys, x):
    """Dense block-diagonal mass matrix at state x (angles/speeds/fluxes/
    charges block scaling), n_x x n_x."""
    lay = sys.layout
    diag = np.ones(sys.n_x)
    diag[lay.sl_omega] = sys.params.m
    diag[lay.sl_v] = sys._c2
    diag[lay.sl_iT] = sys._l_T2
    M = np.diag(diag)
    for k, L in enumerate(sys.inductance_stack(x[lay.sl_theta])):
        s = lay.sl_i.start + 5 * k
        M[s:s + 5, s:s + 5] = L
    return M


def system_energy(sys, x):
    """Stored energy with each machine's magnetic energy 1/2 i^T L(theta) i."""
    lay = sys.layout
    theta, omega, i_flat, v, i_T = lay.split(x)
    i = i_flat.reshape(sys.n_g, 5)
    e = sum(0.5 * i[k] @ inductance_matrix(p, theta[k]) @ i[k]
            + 0.5 * p.m * omega[k] ** 2 for k, p in enumerate(sys.machines))
    e += 0.5 * np.sum(np.repeat(sys.network.c, 2) * v**2)
    return e + 0.5 * np.sum(np.repeat(sys.network.l_T, 2) * i_T**2)


def grid_min_eigenvalue(p, n_theta=64):
    """Smallest eigenvalue of L(theta) over a uniform grid of rotor angles:
    the sampled positive-definiteness check."""
    return min(float(np.linalg.eigvalsh(inductance_matrix(p, theta))[0])
               for theta in np.linspace(0.0, 2.0 * np.pi, n_theta,
                                        endpoint=False))


def rk4_step_fn(f, x, dt):
    """One classical Runge-Kutta step of dx/dt = f(x)."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def looped_drift_metrics(sys, traj, x0, omega0):
    """:class:`DriftMetrics` of a trajectory, one reference state and one
    residual call per sample."""
    lay = sys.layout
    x0 = np.asarray(x0, dtype=float)
    scale = tolerance_scale(x0, traj.inputs)
    v0 = x0[lay.sl_v].reshape(-1, 2)
    vmag0 = np.maximum(np.linalg.norm(v0, axis=1), 1e-12)

    state_dev = np.empty(len(traj.times))
    vmag_dev = np.empty(len(traj.times))
    freq_dev = np.empty(len(traj.times))
    rho_dev = np.empty(len(traj.times))
    for idx, (t, x) in enumerate(zip(traj.times, traj.states)):
        ref = reference_trajectory(sys, x0, omega0, t - traj.times[0])
        state_dev[idx] = np.max(np.abs(x - ref)) / scale
        vmag = np.linalg.norm(x[lay.sl_v].reshape(-1, 2), axis=1)
        vmag_dev[idx] = np.max(np.abs(vmag - vmag0) / vmag0)
        freq_dev[idx] = np.max(np.abs(x[lay.sl_omega] - omega0))
        rho_dev[idx] = np.max(np.abs(residual(sys, x, traj.inputs,
                                              omega0))) / scale

    return DriftMetrics(
        state_deviation=float(np.max(state_dev)),
        voltage_magnitude_deviation=float(np.max(vmag_dev)),
        frequency_deviation=float(np.max(freq_dev)),
        residual=float(np.max(rho_dev)),
        worst_sample=int(np.argmax(state_dev)),
    )


@dataclass(frozen=True)
class RecoveryGeometry:
    """Rotor-frame decomposition of the stator voltage mismatch.

    Seen from the rotor, the voltage the excitation winding must induce is
    the sum of a component counter-rotating with the rotor angle (the
    round-rotor circuit) and one co-rotating with it (the saliency term).
    Together they trace an origin-centered ellipse as the angle sweeps.
    """

    round_part: np.ndarray
    salient_part: np.ndarray

    @property
    def round_mag(self):
        return float(np.linalg.norm(self.round_part))

    @property
    def salient_mag(self):
        return float(np.linalg.norm(self.salient_part))


def recovery_geometry(p, v_term, i_s, omega0):
    """Split the excitation demand into its rotor-frame components."""
    v_term = np.asarray(v_term, dtype=float)
    i_s = np.asarray(i_s, dtype=float)
    round_drop = p.r_s * i_s + omega0 * p.l_s * (ROT90 @ i_s)
    round_part = ROT90.T @ (v_term - round_drop)
    salient_part = omega0 * p.l_sa * np.array([-i_s[0], i_s[1]])
    return RecoveryGeometry(round_part, salient_part)


def rotor_frame_mismatch(geom, theta):
    """Excitation demand seen in the rotor frame at angle theta (2-vector).

    Its second component must vanish at a steady-state rotor angle; its
    first component, divided by omega0*l_sf, is the excitation current.
    """
    return rot(theta).T @ geom.round_part + rot(theta) @ geom.salient_part


def excitation_demand(p, v_term, i_s, omega0, theta):
    """Stator voltage left for the excitation winding to induce:
    v - (r_s I + omega0 J L_s(theta)) i_s. ``theta`` may be an array of
    angles; the result then has one (alpha, beta) row per angle."""
    c, s = np.cos(2.0 * np.asarray(theta)), np.sin(2.0 * np.asarray(theta))
    # L_s(theta) = l_s I + R(2 theta) diag(l_sa, -l_sa), one matrix per angle.
    sal = np.moveaxis(np.array([[c, s], [s, -c]]), (0, 1), (-2, -1))
    Zs = p.r_s * np.eye(2) + omega0 * ROT90 @ (p.l_s * np.eye(2) + p.l_sa * sal)
    return np.asarray(v_term, dtype=float) - Zs @ np.asarray(i_s, dtype=float)


def machine_row(rec, k):
    """Machine k's entries of an array :class:`MachineRecovery`, as the
    record of scalars that :func:`recover_machine` returns."""
    return MachineRecovery(**{f.name: getattr(rec, f.name)[k]
                              for f in fields(rec)})


def recover_one(p, v_term, i_s, omega0, sigma):
    """The package's array recovery (``recover_all``'s code) run for one
    machine: constants ``p``, terminal voltage and stator current pairs."""
    return machine_row(_recover(stack_params([p]), as_complex(v_term),
                                as_complex(i_s), omega0, [sigma]), 0)


def recover_machine(p, v_term, i_s, omega0, sigma, tol=RECOVERY_TOL):
    """Closed-form rotor angle, excitation current and inputs for one machine
    given its terminal voltage and injected stator current.

    The result is a :class:`MachineRecovery` of scalars, ``nu`` one pair.
    ``sigma`` in {-1, +1} picks between the two antipodal rotor angles; the
    excitation current carries the sign. Degenerate situations are returned
    flagged, not silently: a vanishing excitation demand (nu_zero), equal
    ellipse radii (alpha_equal), and zero frequency (omega_zero, feasible
    only when the terminal voltage exactly covers the resistive drop).
    """
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be -1 or +1, got {sigma!r}")
    v_term = np.asarray(v_term, dtype=float)
    i_s = np.asarray(i_s, dtype=float)
    v_scale = max(1.0, float(np.linalg.norm(v_term)))

    if omega0 == 0.0:
        nu = v_term - p.r_s * i_s
        if np.linalg.norm(nu) > tol * v_scale:
            raise InfeasibleSteadyStateError(
                "no steady state at zero frequency: the net stator voltage "
                f"|v - r_s i_s| = {np.linalg.norm(nu):.3e} is nonzero (any "
                "rotor angle and excitation current would leave it unbalanced)"
            )
        return _finalize_recovery(p, v_term, i_s, omega0, sigma,
                                  theta=0.0, i_f=0.0, case="omega_zero")

    geom = recovery_geometry(p, v_term, i_s, omega0)
    a_round, a_sal = geom.round_mag, geom.salient_mag
    # Equal radii: the ellipse may collapse through the origin. The case is
    # flagged; the angle is the regular one, defined unless the two parts
    # are mirror images.
    equal = abs(a_round - a_sal) <= DEGENERACY_BAND * (a_round + a_sal)
    case = "alpha_equal" if equal else "regular"
    # Second rotor-frame component is linear in (cos, sin) of the angle.
    a = geom.salient_part[0] - geom.round_part[0]
    b = geom.round_part[1] + geom.salient_part[1]
    theta = float(np.arctan2(-b, a))

    aligned = rotor_frame_mismatch(geom, theta)
    i_f = float(aligned[0]) / (omega0 * p.l_sf)

    nu_now = excitation_demand(p, v_term, i_s, omega0, theta)
    if np.linalg.norm(nu_now) <= DEGENERACY_BAND * np.linalg.norm(v_term):
        return _finalize_recovery(p, v_term, i_s, omega0, sigma,
                                  theta=theta, i_f=0.0, case="nu_zero")

    if sigma * omega0 * p.l_sf * i_f < 0.0:
        # The two solutions are antipodal: advancing the angle by pi flips
        # the excitation current's sign. The polarization fixes the sign of
        # the product omega0 * l_sf * i_f, which at positive frequency is
        # just the sign of the excitation current.
        theta += np.pi
        i_f = -i_f
    return _finalize_recovery(p, v_term, i_s, omega0, sigma,
                              theta=theta, i_f=i_f, case=case, tol=tol)


def _finalize_recovery(p, v_term, i_s, omega0, sigma, theta, i_f, case,
                       tol=RECOVERY_TOL):
    nu = excitation_demand(p, v_term, i_s, omega0, theta)
    nu_norm = float(np.linalg.norm(nu))
    gauge = max(1.0, nu_norm)
    exc_res = abs(omega0 * p.l_sf * i_f - sigma * nu_norm) / gauge
    ali_res = float(np.linalg.norm(ROT90 @ rvec(theta) * nu_norm - sigma * nu)) / gauge
    if case in ("regular", "alpha_equal") and max(exc_res, ali_res) > tol:
        raise SolverError(
            f"machine recovery inconsistent: excitation residual {exc_res:.3e}, "
            f"alignment residual {ali_res:.3e} exceed {tol:.1e}"
        )
    if case in ("nu_zero", "omega_zero"):
        log.warning("machine recovery hit degenerate case %r; this does not "
                    "define a sensible operating point", case)
        exc_res = abs(omega0 * p.l_sf * i_f) / gauge
        ali_res = 0.0

    currents = np.array([i_s[0], i_s[1], i_f, 0.0, 0.0])
    tau_e = electrical_torque(p, theta, currents)
    return MachineRecovery(
        theta=float(theta), i_f=float(i_f),
        tau_m=float(p.d * omega0 + tau_e), v_f=float(p.r_f * i_f),
        nu=nu, sigma=int(sigma), case=case,
        excitation_residual=float(exc_res), alignment_residual=float(ali_res),
    )


_POSITIVE_FIELDS = ("m", "d", "r_s", "r_f", "r_d", "r_q", "l_s", "l_f", "l_d",
                    "l_q", "l_fd", "l_sf", "l_sd", "l_sq")


def scalar_validate_params(p):
    """One machine's first violation, or None: each sign domain in turn as a
    scalar test, then one Cholesky of L0, which decides positive
    definiteness at every angle; a failure reports L0's smallest eigenvalue."""
    for name in _POSITIVE_FIELDS:
        value = getattr(p, name)
        if not np.isfinite(value) or value <= 0.0:
            return ParamViolation("sign", f"{name} must be > 0, got {value!r}")
    if not np.isfinite(p.l_sa) or p.l_sa < 0.0:
        return ParamViolation("sign", f"l_sa must be >= 0, got {p.l_sa!r}")
    L0 = p.rotor_frame_inductance()
    try:
        np.linalg.cholesky(L0)
    except np.linalg.LinAlgError:
        lam = float(np.linalg.eigvalsh(L0)[0])
        return ParamViolation(
            "positive_definite", "inductance matrix not positive definite at "
            f"theta=0.000000 (smallest eigenvalue {lam:.3e})", theta=0.0,
            eigenvalue=lam)
    return None


def reference_assemble(machines, machine_buses, network, loads=None,
                       bus_ids=None):
    """Assembly that checks everything again on the reordered copies: each
    machine on its own with :func:`scalar_validate_params`, the renumbered
    endpoints and reordered capacitances through the :class:`Network`
    constructor."""
    problems = []
    n_v = network.n_v
    if len(machines) < 1:
        problems.append("need at least one machine")
    loads = [Load.none()] * n_v if loads is None else loads
    bus_ids = list(range(n_v)) if bus_ids is None else bus_ids
    for k, p in enumerate(machines):
        violation = scalar_validate_params(p)
        if violation is not None:
            problems.append(f"machine {k + 1}: {violation.message}")
    seen = set()
    for k, b in enumerate(machine_buses):
        if not (0 <= b < n_v):
            problems.append(f"machine {k + 1} attached to nonexistent bus index {b}")
        elif b in seen:
            problems.append(f"more than one machine attached to bus index {b}")
        seen.add(b)
    if len(loads) != n_v:
        problems.append(f"expected {n_v} loads, got {len(loads)}")
    if problems:
        raise ValidationError(
            "system validation failed:\n  " + "\n  ".join(problems), problems)

    order = list(machine_buses) + [b for b in range(n_v)
                                   if b not in set(machine_buses)]
    params = stack_params(machines)
    label = [order.index(b) for b in range(n_v)]
    return PowerSystem(
        machines, params, params.rotor_frame_inductance(),
        Network(heads=np.array([label[b] for b in network.heads]),
                tails=np.array([label[b] for b in network.tails]),
                c=network.c[order], r_T=network.r_T, l_T=network.l_T),
        [loads[b] for b in order], [bus_ids[b] for b in order], order)
