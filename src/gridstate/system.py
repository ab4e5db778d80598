"""Whole-system assembly: state layout, vector fields, residual, invariance.

The flat state vector stacks, in this order: machine rotor angles, rotor
speeds, machine winding currents (5 per machine), bus voltage pairs, line
current pairs. Buses are ordered so machine k sits at bus k; the assembler
permutes user input into this order and remembers the permutation.

The machines are evaluated in their rotor frames. With L(theta) =
T(theta) L0 T(theta)^T (:mod:`gridstate.machine`), each call turns stator
current and terminal voltage by e^{-j theta} into the stack [applied
voltage, i_r, omega i_r], and one constant operator per machine does the
rest in one product: winding rows L0^-1 [I, -R, -K0] (K0 = J L0 - L0 J) for
the vector field, [-I, R, K0, L0 J] on the stack plus omega0 i_r for the
residual, and the stator rows of L0, which give the torque. Assembly
validates every machine with one Cholesky of L0, exact for all angles.

The steady field turns every planar pair at omega0 and advances the rotor
angles with it; with loads that commute with rotations the residual turns
along, so :func:`invariance_defect` reads the residual's derivative along
that field off the residual itself, exactly and with no extra evaluation.
"""

import numpy as np

from .errors import LoadDomainError, ValidationError
from .frame import MACHINE_ROT90, as_complex, real_blocks, rotate_pairs
from .loads import Load, LoadBank, rotation_commutator
from .machine import stack_params, turn_stator, validate_params
from .network import NetworkParams, Topology


class StateLayout:
    """Index bookkeeping for the flat state vector."""

    def __init__(self, n_g, n_v, n_t):
        self.n_g, self.n_v, self.n_t = n_g, n_v, n_t
        self.n_x = 7 * n_g + 2 * n_v + 2 * n_t
        self.n_u = 2 * n_g
        o = 0
        self.sl_theta = slice(o, o + n_g); o += n_g
        self.sl_omega = slice(o, o + n_g); o += n_g
        self.sl_i = slice(o, o + 5 * n_g); o += 5 * n_g
        self.sl_v = slice(o, o + 2 * n_v); o += 2 * n_v
        self.sl_iT = slice(o, o + 2 * n_t)
        self.sl_vg = slice(self.sl_v.start, self.sl_v.start + 2 * n_g)
        # The planar pairs: stator currents, bus voltages, line currents.
        rows = np.arange(self.n_x)
        stator = rows[self.sl_i].reshape(n_g, 5)[:, :2].ravel()
        self.pair_rows = np.concatenate((stator, rows[self.sl_v.start:]))
        # Block indices into the last axis, built once for the hot paths.
        self._blocks = tuple((Ellipsis, sl) for sl in (
            self.sl_theta, self.sl_omega, self.sl_i, self.sl_v, self.sl_iT))

    def pack(self, theta, omega, i, v, i_T):
        """State(s) of shape (..., n_x); the batch shape is that of ``v``, the
        other blocks broadcast to it, the currents are (..., n_g, 5) blocks
        or flat."""
        b_theta, b_omega, b_i, b_v, b_iT = self._blocks
        i = np.asarray(i)
        x = np.empty(np.shape(v)[:-1] + (self.n_x,))
        x[b_theta] = theta
        x[b_omega] = omega
        x[b_i] = i.reshape(i.shape[:-2] + (-1,))
        x[b_v] = v
        x[b_iT] = i_T
        return x

    def split(self, x):
        """Views (theta, omega, i, v, i_T) into state(s) of shape (..., n_x)."""
        b_theta, b_omega, b_i, b_v, b_iT = self._blocks
        return x[b_theta], x[b_omega], x[b_i], x[b_v], x[b_iT]

    def pack_input(self, tau_m, v_f):
        return np.concatenate([np.asarray(tau_m, dtype=float).ravel(),
                               np.asarray(v_f, dtype=float).ravel()])

    def split_input(self, u):
        return u[:self.n_g], u[self.n_g:]


class PowerSystem:
    """Validated multi-machine system in solve order (machine buses first).

    Build instances through :func:`assemble`, which validates components and
    permutes buses. Attributes are read-mostly; the constructor precomputes
    the arrays used by the hot evaluation paths.
    """

    def __init__(self, machines, topology, network, loads, bus_ids, input_position):
        self.machines = tuple(machines)
        self.topology = topology
        self.network = network
        self.bus_ids = tuple(bus_ids)
        # input_position[k] = position of solve-order bus k in the user's input
        self.input_position = tuple(input_position)
        self.n_g = len(self.machines)
        self.n_v, self.n_t = topology.n_v, topology.n_t
        self.n_l = self.n_v - self.n_g
        self.layout = StateLayout(self.n_g, self.n_v, self.n_t)
        self.n_x = self.layout.n_x

        # E kron I_2, the incidence acting on stacked pairs.
        self.incidence2 = real_blocks(topology.incidence)
        self._c2 = np.repeat(network.c, 2)
        self._r_T2 = np.repeat(network.r_T, 2)
        self._l_T2 = np.repeat(network.l_T, 2)
        self.params = stack_params(self.machines)
        # Reciprocals for the vector field's speed and network rows.
        self._inv_m, self._d_m = 1.0 / self.params.m, self.params.d / self.params.m
        self._neg_inv_c2, self._inv_l2 = -1.0 / self._c2, 1.0 / self._l_T2
        self._r_l2 = self._r_T2 / self._l_T2
        self._L0 = self.params.rotor_frame_inductance()
        self._field_op, self._residual_op = _rotor_operators(
            self._L0, self.params.resistance_diag())
        self.loads = tuple(loads)
        self.load_bank = LoadBank(self.loads, self.bus_ids)

    def with_loads(self, loads):
        """Copy of this system with the per-bus loads replaced (solve order).

        Accepts any objects with a ``current(v)`` method taking voltage
        columns of shape (2, ...); used to probe how non-conforming load
        models break the steady state. Subclasses of :class:`Load` count as
        custom loads too. The network solve refuses custom loads.
        """
        clone = PowerSystem.__new__(PowerSystem)
        clone.__dict__.update(self.__dict__)
        clone.loads = tuple(loads)
        clone.load_bank = LoadBank(clone.loads, self.bus_ids)
        return clone

    def inductance_stack(self, theta):
        """Winding inductance matrices L(theta) = T L0 T^T of all machines,
        shape (n_g, 5, 5)."""
        z = np.exp(1j * theta)[:, None]
        L0_Tt = turn_stator(self._L0, z)
        return turn_stator(np.swapaxes(L0_Tt, 1, 2), z).swapaxes(1, 2)

    def load_currents(self, v):
        """Per-bus load currents stacked like the voltages ``v``, shape
        (..., 2*n_v): the shipped loads in one expression over the complex
        voltages (see :class:`LoadBank`), custom loads one call each, with
        their voltage columns of shape (2, ...)."""
        bank = self.load_bank
        vc = as_complex(v)
        i_l = (bank.admittance(vc) * vc).view(float)
        for k, load in bank.custom:
            try:
                pair = np.moveaxis(v[..., 2 * k:2 * k + 2], -1, 0)
                i_l[..., 2 * k:2 * k + 2] = np.moveaxis(load.current(pair), 0, -1)
            except LoadDomainError as err:
                raise LoadDomainError(f"bus {self.bus_ids[k]!r}: {err}",
                                      bus=self.bus_ids[k]) from err
        return i_l


# Stack columns: v_r (2), i_r (5), v_f, omega i_r (5), then omega0 i_r (5)
# or, for the field, a zero; read as complex pairs, [0] is v_r and [1] the
# stator part of i_r. Operator rows: five winding rows, a zero row, and L0's
# stator rows as the pair [3] = -(L0 i_r)_alpha + j (L0 i_r)_beta, so the
# torque (L0 i_r) . (J i_r) is Im([1] [3]).
_I_R, _OMEGA_I_R, _OMEGA0_I_R = slice(2, 7), slice(8, 13), slice(13, 18)


def _rotor_operators(L0, r):
    """Field (n_g, 8, 14) and residual (n_g, 8, 18) operators from L0 and the
    resistances ``r``; the field's winding rows are -L0^-1 times the residual's."""
    L0J = L0 @ MACHINE_ROT90
    res = np.zeros((len(L0), 8, 18))
    res[:, 0, 0] = res[:, 1, 1] = res[:, 2, 7] = -1.0
    res.reshape(len(L0), -1)[:, 2:79:19] = r  # entries (k, 2 + k), k < 5
    res[:, :5, _OMEGA_I_R] = MACHINE_ROT90 @ L0 - L0J
    res[:, :5, _OMEGA0_I_R] = L0J
    res[:, 6, _I_R], res[:, 7, _I_R] = -L0[:, 0], L0[:, 1]
    field = res[..., :14].copy()
    field[:, :5] = -np.linalg.inv(L0) @ field[:, :5]
    return field, res


def _machines(sys, x, omega, u, omega0=None):
    """Machine currents (..., n_g, 5) of states ``x`` (..., n_x), the field's
    (with ``omega0``, the residual's) winding rows in the stator frame, and
    the torque. A stack runs one product per machine over all its states."""
    lay, n_g = sys.layout, sys.n_g
    op = sys._field_op if omega0 is None else sys._residual_op
    batch = omega.shape[:-1]
    i = x[..., lay.sl_i].reshape(batch + (n_g, 5))
    s = np.zeros(batch + (n_g, op.shape[-1]))
    s[..., :2] = x[..., lay.sl_vg].reshape(batch + (n_g, 2))
    s[..., _I_R] = i
    s[..., 7] = u[n_g:]
    stator = s.view(complex)[..., :2]
    to_rotor = np.exp(-1j * x[..., lay.sl_theta])
    stator *= to_rotor[..., None]
    np.multiply(omega[..., None], s[..., _I_R], out=s[..., _OMEGA_I_R])
    if omega0 is not None:
        np.multiply(omega0, s[..., _I_R], out=s[..., _OMEGA0_I_R])
    if batch:
        w = op @ s.reshape((-1,) + s.shape[-2:]).transpose(1, 2, 0)
        w = np.ascontiguousarray(w.transpose(2, 0, 1)).reshape(batch + (n_g, 8))
    else:
        w = (op @ s[..., None]).reshape(n_g, 8)
    wc = w.view(complex)
    torque = (stator[..., 1] * wc[..., 3]).imag
    turned = wc[..., 0]
    turned /= to_rotor
    return i, w[..., :5], torque


def _bus_currents(sys, i, v, i_T):
    """Current leaving each bus into its load, machine and lines, stacked
    like the voltages ``v``, for machine currents ``i`` (..., n_g, 5)."""
    out = sys.load_currents(v)
    injected = out[..., :2 * sys.n_g].reshape(i.shape[:-1] + (2,))
    injected += i[..., :2]
    out += i_T @ sys.incidence2.T
    return out


def assemble(machines, machine_buses, topology, network, loads=None, bus_ids=None):
    """Validate components, reorder buses so machines come first, and build
    the :class:`PowerSystem`.

    ``machine_buses`` gives, per machine, the index of its bus in the input
    ordering of ``topology``/``network``/``loads``. All validation problems
    are aggregated into a single report.
    """
    problems = []
    n_v, n_t = topology.n_v, topology.n_t
    n_g = len(machines)
    if n_g < 1:
        problems.append("need at least one machine")
    if loads is None:
        loads = [Load.none()] * n_v
    if bus_ids is None:
        bus_ids = list(range(n_v))

    for k, p in enumerate(machines):
        violation = validate_params(p)
        if violation is not None:
            problems.append(f"machine {k + 1}: {violation.message}")

    seen = set()
    for k, b in enumerate(machine_buses):
        if not (0 <= b < n_v):
            problems.append(f"machine {k + 1} attached to nonexistent bus index {b}")
        elif b in seen:
            problems.append(f"more than one machine attached to bus index {b}")
        seen.add(b)

    if len(network.c) != n_v:
        problems.append(f"expected {n_v} bus capacitances, got {len(network.c)}")
    if len(network.l_T) != n_t:
        problems.append(f"expected {n_t} line inductances, got {len(network.l_T)}")
    if len(loads) != n_v:
        problems.append(f"expected {n_v} loads, got {len(loads)}")

    if problems:
        raise ValidationError(
            "system validation failed:\n  " + "\n  ".join(problems), problems
        )

    # Permute buses: machine buses first (in machine order), then the rest
    # in input order.
    rest = [b for b in range(n_v) if b not in set(machine_buses)]
    order = list(machine_buses) + rest
    E = topology.incidence[order, :]
    net = NetworkParams(c=network.c[order], l_T=network.l_T, r_T=network.r_T)
    return PowerSystem(
        machines=machines,
        topology=Topology(E),
        network=net,
        loads=[loads[b] for b in order],
        bus_ids=[bus_ids[b] for b in order],
        input_position=order,
    )


def vector_field(sys, x, u):
    """Time derivative of the full power system state, for states of shape
    (..., n_x)."""
    b_theta, b_omega, b_i, b_v, b_iT = sys.layout._blocks
    omega, v, i_T = x[b_omega], x[b_v], x[b_iT]
    i, di, torque = _machines(sys, x, omega, u)
    dx = np.empty(x.shape)
    dx[b_theta] = omega
    domega = np.multiply(u[:sys.n_g] - torque, sys._inv_m, out=dx[b_omega])
    domega -= sys._d_m * omega
    dx[b_i].reshape(i.shape)[...] = di
    np.multiply(_bus_currents(sys, i, v, i_T), sys._neg_inv_c2, out=dx[b_v])
    di_T = np.multiply(v @ sys.incidence2, sys._inv_l2, out=dx[b_iT])
    di_T -= sys._r_l2 * i_T
    return dx


def steady_field(sys, x, omega0):
    """Rotating steady-state vector field: angles advance at omega0, speeds
    hold, and every planar pair (stator currents, bus voltages, line
    currents) rotates rigidly at omega0. States are (..., n_x)."""
    lay = sys.layout
    _, _, i_flat, v, i_T = lay.split(x)
    i = i_flat.reshape(i_flat.shape[:-1] + (sys.n_g, 5))
    return lay.pack(
        omega0,
        0.0,
        omega0 * i @ MACHINE_ROT90.T,
        omega0 * rotate_pairs(v),
        omega0 * rotate_pairs(i_T),
    )


def residual(sys, x, u, omega0):
    """Gap between the rotating steady-state dynamics and the model dynamics,
    scaled by the (block-diagonal) mass matrix. Zero exactly on steady
    states at frequency omega0 with input u. States are (..., n_x)."""
    b_theta, b_omega, b_i, b_v, b_iT = sys.layout._blocks
    omega, v, i_T = x[b_omega], x[b_v], x[b_iT]
    i, rho_i, torque = _machines(sys, x, omega, u, omega0)
    rho = np.empty(x.shape)
    np.subtract(omega0, omega, out=rho[b_theta])
    rho_torque = np.multiply(sys.params.d, omega, out=rho[b_omega])
    rho_torque += torque - u[:sys.n_g]
    rho[b_i].reshape(i.shape)[...] = rho_i
    np.add(_bus_currents(sys, i, v, i_T),
           omega0 * sys._c2 * rotate_pairs(v), out=rho[b_v])
    rho_lines = np.multiply(sys._r_T2, i_T, out=rho[b_iT])
    rho_lines += omega0 * sys._l_T2 * rotate_pairs(i_T)
    rho_lines -= v @ sys.incidence2
    return rho


def residual_block_norms(sys, rho):
    """Max-norm of each residual block, keyed by what the block balances;
    on a stack of residuals (..., n_x), the max over the stack."""
    names = ("frequency", "torque", "windings", "nodes", "lines")
    size = np.abs(rho)
    return {name: float(size[b].max(initial=0.0))
            for name, b in zip(names, sys.layout._blocks)}


def invariance_defect(sys, x, u, omega0, rho=None):
    """Max-norm of the derivative of the residual along the steady field,
    D rho(x)[f(x)] with f = steady_field(sys, x, omega0), exact at any x.

    The field advances the angles and turns every planar pair at omega0;
    with loads that commute with rotations the residual turns along, so
    D rho[f] = omega0 G rho, G being J on each stator, bus and line pair
    and 0 on the angle and speed rows. A custom load adds omega0 times its
    :func:`~gridstate.loads.rotation_commutator` on its bus rows. ``rho``
    is the residual at (x, u) when the caller has it already. Takes one
    state of shape (n_x,): the commutator works one voltage pair at a time.
    """
    if np.shape(x) != (sys.n_x,):
        raise ValueError(f"invariance_defect takes one state, got {np.shape(x)}")
    if rho is None:
        rho = residual(sys, x, u, omega0)
    lay = sys.layout
    if not sys.load_bank.custom:
        # omega0 G rho turns the pairs, so |omega0| scales their max entry.
        return abs(omega0) * float(abs(rho[lay.pair_rows]).max())
    drift = steady_field(sys, rho, omega0)
    drift[lay.sl_theta] = 0.0
    v, drift_v = x[lay.sl_v], drift[lay.sl_v]
    for k, load in sys.load_bank.custom:
        drift_v[2 * k:2 * k + 2] += omega0 * rotation_commutator(
            load, v[2 * k:2 * k + 2])
    return float(np.max(np.abs(drift)))


def tolerance_scale(x, u):
    """Relative gauge for residual thresholds: max(1, |x|_inf, |u|_inf)."""
    return max(1.0, float(abs(x).max()), float(abs(u).max()))


def mass_matrix(sys, x):
    """Dense block-diagonal mass matrix at state x (angles/speeds/fluxes/
    charges block scaling). Intended for cross-checks, not hot paths."""
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


def total_energy(sys, x):
    """Stored energy: winding and line magnetic energy, rotor kinetic energy,
    bus capacitor energy."""
    lay = sys.layout
    theta, omega, i_flat, v, i_T = lay.split(x)
    i = i_flat.reshape(sys.n_g, 5)
    L = sys.inductance_stack(theta)
    e_mag = 0.5 * float(np.einsum("ka,kab,kb->", i, L, i))
    e_kin = 0.5 * float(np.sum(sys.params.m * omega**2))
    e_cap = 0.5 * float(np.sum(sys._c2 * v**2))
    e_lines = 0.5 * float(np.sum(sys._l_T2 * i_T**2))
    return e_mag + e_kin + e_cap + e_lines


def field_indicator(n_g):
    """Matrix placing the excitation voltages into the winding equations."""
    e = np.zeros((5, 1))
    e[2, 0] = 1.0
    return np.kron(np.eye(n_g), e)


def stator_indicator(n_g):
    """Matrix selecting the stator pairs from stacked machine currents."""
    sel = np.zeros((5, 2))
    sel[0, 0] = sel[1, 1] = 1.0
    return np.kron(np.eye(n_g), sel)


def bus_indicator(n_g, n_v):
    """Maps stacked machine currents to bus current injections (2n_v x 5n_g):
    stator pairs land on the machine buses, load buses get zero."""
    top = stator_indicator(n_g).T
    return np.vstack([top, np.zeros((2 * (n_v - n_g), 5 * n_g))])
