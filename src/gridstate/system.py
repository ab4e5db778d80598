"""Whole-system assembly: state layout, vector fields, residual, invariance.

The flat state vector stacks, in this order: machine rotor angles, rotor
speeds, machine winding currents (5 per machine), bus voltage pairs, line
current pairs. Buses are ordered so machine k sits at bus k; the assembler
permutes user input into this order and remembers the permutation.

The machines are evaluated in their rotor frames. With the factorization
L(theta) = T(theta) L0 T(theta)^T of :mod:`gridstate.machine`, the system
precomputes L0, L0^-1 and J L0 - L0 J per machine as (n_g, 5, 5) stacks;
each vector-field or residual call rotates the stator pairs by e^{-j theta}
(on a complex view, as the load bank reads voltages), applies those
constant matrices and rotates the winding rows back. Assembly validates
every machine with one Cholesky of L0, which is exact for all angles.

The steady field turns every planar pair at omega0 and advances the rotor
angles with it; with loads that commute with rotations the residual turns
along, so :func:`invariance_defect` reads the residual's derivative along
that field off the residual itself, exactly and with no extra evaluation.
"""

import numpy as np

from .errors import LoadDomainError, ValidationError
from .frame import MACHINE_ROT90, as_complex, real_blocks, rotate_pairs
from .loads import Load, LoadBank, rotation_commutator
from .machine import (induction_matrix, rotor_torque, stack_params,
                      turn_stator, turn_stator_in_place, validate_params)
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
        self._r_winding = self.params.resistance_diag()
        # Rotor-frame constants: L0 = L(0), its inverse, and J L0 - L0 J.
        self._L0 = self.params.rotor_frame_inductance()
        self._L0_inv = np.linalg.inv(self._L0)
        self._K0 = induction_matrix(self._L0)
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
        i_l = np.zeros(vc.shape, dtype=complex)
        # Bus axis indexed through .T: cheaper than [..., index] per call.
        vb = vc.T[bank.index].T
        i_l.T[bank.index] = (bank.admittance(vb) * vb).T
        i_l = i_l.view(float)
        for k, load in bank.custom:
            try:
                pair = np.moveaxis(v[..., 2 * k:2 * k + 2], -1, 0)
                i_l[..., 2 * k:2 * k + 2] = np.moveaxis(load.current(pair), 0, -1)
            except LoadDomainError as err:
                raise LoadDomainError(f"bus {self.bus_ids[k]!r}: {err}",
                                      bus=self.bus_ids[k]) from err
        return i_l


def _machine_block(sys, theta, omega, i, v, v_f):
    """Terms shared by the vector field and the residual, in the rotor frame
    (see :mod:`gridstate.machine`): z = e^{j theta}, the rotor-frame
    currents i_r = T^T i, the electrical torque, and the winding voltage
    left to change the flux, applied - R i - induced, as T^T of it, for
    currents ``i`` of shape (..., n_g, 5)."""
    z = np.exp(1j * theta)
    to_rotor = z.conj()
    i_r = turn_stator(i, to_rotor)
    drive = np.zeros(i.shape)
    drive[..., :2] = v[..., :2 * sys.n_g].reshape(theta.shape + (2,))
    drive[..., 2] = v_f
    turn_stator_in_place(drive, to_rotor)
    drive -= sys._r_winding * i_r
    drive -= omega[..., None] * (sys._K0 @ i_r[..., None])[..., 0]
    return z, i_r, rotor_torque(sys._L0, i_r), drive


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
    lay = sys.layout
    theta, omega, i_flat, v, i_T = lay.split(x)
    tau_m, v_f = lay.split_input(u)
    i = i_flat.reshape(theta.shape + (5,))

    z, _, tau_e, drive = _machine_block(sys, theta, omega, i, v, v_f)
    di = turn_stator_in_place((sys._L0_inv @ drive[..., None])[..., 0], z)

    i_in = sys.load_currents(v)
    i_in[..., :2 * sys.n_g] += i[..., :2].reshape(omega.shape[:-1] + (-1,))
    dv = (-(i_T @ sys.incidence2.T) - i_in) / sys._c2
    di_T = (-sys._r_T2 * i_T + v @ sys.incidence2) / sys._l_T2

    domega = (tau_m - sys.params.d * omega - tau_e) / sys.params.m
    return lay.pack(omega, domega, di, dv, di_T)


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
    lay = sys.layout
    theta, omega, i_flat, v, i_T = lay.split(x)
    tau_m, v_f = lay.split_input(u)
    i = i_flat.reshape(theta.shape + (5,))

    z, i_r, tau_e, drive = _machine_block(sys, theta, omega, i, v, v_f)

    rho_freq = omega0 - omega
    rho_torque = sys.params.d * omega + tau_e - tau_m
    LJi = (sys._L0 @ (i_r @ MACHINE_ROT90.T)[..., None])[..., 0]
    rho_windings = turn_stator_in_place(omega0 * LJi - drive, z)

    i_l = sys.load_currents(v)
    inj = np.zeros(v.shape)
    inj[..., :2 * sys.n_g] = i[..., :2].reshape(omega.shape[:-1] + (-1,))
    rho_nodes = omega0 * sys._c2 * rotate_pairs(v) + inj \
        + i_T @ sys.incidence2.T + i_l
    rho_lines = sys._r_T2 * i_T + omega0 * sys._l_T2 * rotate_pairs(i_T) \
        - v @ sys.incidence2
    return lay.pack(rho_freq, rho_torque, rho_windings, rho_nodes, rho_lines)


def residual_block_norms(sys, rho):
    """Max-norm of each residual block, keyed by what the block balances."""
    lay = sys.layout
    names = ("frequency", "torque", "windings", "nodes", "lines")
    slices = (lay.sl_theta, lay.sl_omega, lay.sl_i, lay.sl_v, lay.sl_iT)
    return {name: float(np.max(np.abs(rho[sl]), initial=0.0))
            for name, sl in zip(names, slices)}


def invariance_defect(sys, x, u, omega0, rho=None):
    """Max-norm of the derivative of the residual along the steady field,
    D rho(x)[f(x)] with f = steady_field(sys, x, omega0), exact at any x.

    The field advances the angles and turns every planar pair at omega0;
    with loads that commute with rotations the residual turns along, so
    D rho[f] = omega0 G rho, G being J on each stator, bus and line pair
    and 0 on the angle and speed rows. A custom load adds omega0 times its
    :func:`~gridstate.loads.rotation_commutator` on its bus rows. ``rho``
    is the residual at (x, u) when the caller has it already.
    """
    if rho is None:
        rho = residual(sys, x, u, omega0)
    lay = sys.layout
    drift = steady_field(sys, rho, omega0)
    drift[lay.sl_theta] = 0.0
    v, drift_v = x[lay.sl_v], drift[lay.sl_v]
    for k, load in sys.load_bank.custom:
        drift_v[2 * k:2 * k + 2] += omega0 * rotation_commutator(
            load, v[2 * k:2 * k + 2])
    return float(np.max(np.abs(drift)))


def tolerance_scale(x, u):
    """Relative gauge for residual thresholds: max(1, |x|_inf, |u|_inf)."""
    return max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(u))))


def mass_matrix(sys, x):
    """Dense block-diagonal mass matrix at state x (angles/speeds/fluxes/
    charges block scaling). Intended for cross-checks, not hot paths."""
    lay = sys.layout
    theta = x[lay.sl_theta]
    diag = np.ones(sys.n_x)
    diag[lay.sl_omega] = sys.params.m
    diag[lay.sl_v] = sys._c2
    diag[lay.sl_iT] = sys._l_T2
    M = np.diag(diag)
    L = sys.inductance_stack(theta)
    for k in range(sys.n_g):
        s = lay.sl_i.start + 5 * k
        M[s:s + 5, s:s + 5] = L[k]
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
