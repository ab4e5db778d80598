"""Whole-system assembly: state layout, vector fields, residual, invariance.

The flat state vector stacks, in this order: machine rotor angles, rotor
speeds, machine winding currents (5 per machine), bus voltage pairs, line
current pairs. Buses are ordered so machine k sits at bus k; the assembler
permutes user input into this order and remembers the permutation.

The machines run in their rotor frames. With L(theta) = T(theta) L0
T(theta)^T (:mod:`gridstate.machine`), each call gathers one stack per
machine (``_I_R``) in one take, turns its pairs by e^{-j theta}, and one
constant operator per machine does the rest in one product: winding rows
L0^-1 [I, -R, -K0] (K0 = J L0 - L0 J) for the field, [-I, R + omega0 L0 J,
K0] for the residual, and L0's stator rows, which give the torque.

The network has one description and one evaluation in the kernels: its
linear rows (E on the pairs, the stator injections, r_T) are one CSR
pattern with the residual's values and the field's (:func:`_linear_rows`),
and both kernels take their product through :func:`_linear`.

The steady field, omega0 G with G = :meth:`StateLayout.rotate`, turns
every planar pair at omega0 and advances the rotor angles; loads that commute
with rotations turn the residual along, so :func:`invariance_defect` reads
its derivative off the residual, exactly and with no extra evaluation. The
certificate reports that derivative; it gates only the residual itself
and the rotation probe of custom loads.
"""

from functools import cached_property

import numpy as np

from .errors import LoadDomainError, ValidationError
from .frame import MACHINE_ROT90, as_complex, rotate_pairs
from .loads import Load, LoadBank
from .machine import stack_params, stator_frame_inductance, validate_params


# The machine stack, 14 columns: v_r, i_s, omega i_s (the pairs [0] to [2],
# turned by e^{-j theta}), omega (i_f, i_d, i_q), (i_f, i_d, i_q), v_f, and a
# pad read by a zero column. Operator rows: 5 winding rows, a zero row, L0's
# stator rows as the pair [3] = -(L0 i_r)_a + j (L0 i_r)_b: torque Im([1] [3]).
_I_R, _OMEGA_I_R, _V_F = np.array([2, 3, 9, 10, 11]), slice(4, 9), 12
_WINDINGS, _TORQUE = slice(0, 5), slice(6, 8)


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
        i = rows[self.sl_i].reshape(n_g, 5)
        self.pair_rows = np.append(i[:, :2], rows[self.sl_v.start:])
        # The machines' stacks (``_I_R``); the v_f column and pad read i_s.
        self.machine_stack = stack = np.empty((n_g, 14), dtype=np.intp)
        stack[:, :2] = rows[self.sl_vg].reshape(n_g, 2)
        stack[:, _I_R] = stack[:, _OMEGA_I_R] = i
        stack[:, _V_F:] = i[:, :2]
        # Block indices and starts on the last axis, built once for hot paths.
        self._blocks = tuple((Ellipsis, sl) for sl in (
            self.sl_theta, self.sl_omega, self.sl_i, self.sl_v, self.sl_iT))
        self._block_starts = np.array([sl.start for _, sl in self._blocks])

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

    def rotate(self, x):
        """G x for state(s) (..., n_x): J on each pair of ``pair_rows``,
        zero elsewhere; omega0 G turns the pairs as the steady flow does."""
        out = np.zeros(np.shape(x))
        out[..., self.pair_rows] = rotate_pairs(x[..., self.pair_rows])
        return out

    def pack_input(self, tau_m, v_f):
        return np.concatenate([np.asarray(tau_m, dtype=float).ravel(),
                               np.asarray(v_f, dtype=float).ravel()])

    def split_input(self, u):
        return u[:self.n_g], u[self.n_g:]


class PowerSystem:
    """Validated multi-machine system in solve order (machine buses first).

    Build instances through :func:`assemble`, which validates components,
    stacks the machine constants (``params``, rotor-frame inductances
    ``L0``) and permutes buses. Attributes are read-mostly; the constructor
    precomputes the arrays used by the hot evaluation paths.
    """

    def __init__(self, machines, params, L0, network, loads, bus_ids,
                 input_position):
        self.machines = tuple(machines)
        self.network = network
        self.bus_ids = tuple(bus_ids)
        # input_position[k] = position of solve-order bus k in the user's input
        self.input_position = tuple(input_position)
        self.n_g = len(self.machines)
        self.n_v, self.n_t = network.n_v, network.n_t
        self.n_l = self.n_v - self.n_g
        self.layout = StateLayout(self.n_g, self.n_v, self.n_t)
        self.n_x = self.layout.n_x

        self.params, self._L0 = params, L0
        # The mass matrix's diagonal: m, c and l_T on the speeds, bus and
        # line pairs; ones elsewhere (the windings' block is L(theta)).
        self.mass = np.concatenate((np.ones(self.n_g), params.m,
                                    np.ones(5 * self.n_g),
                                    np.repeat(network.c, 2),
                                    np.repeat(network.l_T, 2)))
        self._inv_m = 1.0 / params.m
        self._field_op, self._residual_op, self._turn = _rotor_operators(
            self._L0, self.params.resistance_diag())
        self.loads = tuple(loads)
        self.load_bank = LoadBank(self.loads, self.bus_ids, self.n_g)

    def with_loads(self, loads):
        """Copy of this system with the per-bus loads replaced (solve order).

        Accepts any objects with a ``current(v)`` method taking voltage
        columns of shape (2, ...), to probe how non-conforming load models
        break the steady state; subclasses of :class:`Load` count as custom
        loads too and must define ``current``. The network solve refuses
        custom loads. The copy shares the network; its linear rows and
        :attr:`solve_order_network`, which depend on the loads, are its own.
        """
        return PowerSystem(self.machines, self.params, self._L0, self.network,
                           loads, self.bus_ids, self.input_position)

    @cached_property
    def linear_rows(self):
        """:func:`_linear_rows` on first use: columns, row starts, and the
        residual's and the field's values on them."""
        return _linear_rows(self)

    @property
    def field_rows(self):
        """The field's linear rows as (columns, values, row starts)."""
        cols, starts, _, values = self.linear_rows
        return cols, values, starts

    @cached_property
    def solve_order_network(self):
        """The network relabelled in ``load_bank.solve_order``, on first use."""
        return self.network.relabel(self.load_bank.solve_order)

    @cached_property
    def _field_loads(self):
        """Copy of this system with only its k > 0 and custom loads."""
        return self.with_loads([Load.none() if type(ld) is Load and not
                                ld.exponent else ld for ld in self.loads])

    def inductance_stack(self, theta):
        """Winding inductance matrices L(theta) = T L0 T^T of all machines,
        shape (n_g, 5, 5)."""
        return stator_frame_inductance(self._L0, theta)

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


def _rotor_operators(L0, r):
    """Field, residual and turn (L0 J on i_r) operators, (n_g, 8, 14): at
    omega0 the residual's is res + omega0 turn; field windings -L0^-1 res."""
    L0J = L0 @ MACHINE_ROT90
    res, turn = np.zeros((2, len(L0), 8, 14))
    res[:, 0, 0] = res[:, 1, 1] = res[:, 2, _V_F] = -1.0
    res[:, np.arange(5), _I_R] = r  # R, diagonal on i_r
    res[:, _WINDINGS, _OMEGA_I_R] = MACHINE_ROT90 @ L0 - L0J
    res[:, _TORQUE, _I_R] = L0[:, :2] * [[-1.0], [1.0]]
    turn[:, _WINDINGS, _I_R] = L0J
    field = res.copy()
    field[:, _WINDINGS] = -np.linalg.inv(L0) @ field[:, _WINDINGS]
    return field, res, turn


def _machines(sys, x, omega, u, omega0=None):
    """Machine currents (..., n_g, 5) of states ``x`` (..., n_x), the field's
    (with ``omega0``, the residual's) winding rows in the stator frame, and
    the torque. A stack runs one product per machine over all its states."""
    lay, n_g, batch = sys.layout, sys.n_g, omega.shape[:-1]
    op = sys._field_op if omega0 is None else sys._residual_op + omega0 * sys._turn
    s = x.take(lay.machine_stack, axis=-1)
    s[..., _V_F] = u[n_g:]
    pairs = s.view(complex)[..., :3]
    to_rotor = np.exp(-1j * x[..., lay.sl_theta])
    pairs *= to_rotor[..., None]
    s[..., _OMEGA_I_R] *= omega[..., None]
    if batch:
        w = op @ s.reshape((-1,) + s.shape[-2:]).transpose(1, 2, 0)
        w = np.ascontiguousarray(w.transpose(2, 0, 1)).reshape(batch + (n_g, 8))
    else:
        w = (op @ s[..., None]).reshape(n_g, 8)
    wc = w.view(complex)
    torque = (pairs[..., 1] * wc[..., 3]).imag
    np.divide(wc[..., 0], to_rotor, out=wc[..., 0])
    return x[..., lay.sl_i].reshape(batch + (n_g, 5)), w[..., _WINDINGS], torque


def _linear_rows(sys):
    """The model's linear rows as one CSR pattern (columns, row starts) and
    two value arrays. The residual's: angles -omega, speeds d omega, each
    bus pair its stator pair and E i_T, each line pair r i_T - E^T v. The
    field's: those over -M, plus each impedance load's -y / c block, zero in
    the residual, which takes every load from ``load_currents``. Winding
    rows, which the machines write, hold an explicit zero, as ``reduceat``
    returns x[start] for an empty row; no bus row of a network is empty."""
    lay, net, n_g = sys.layout, sys.network, sys.n_g
    rows, v0, n2 = np.arange(sys.n_x), lay.sl_v.start, 2 * sys.n_t
    lines = rows[lay.sl_iT]
    ends = (v0 + 2 * np.stack((net.heads, net.tails))[..., None]
            + (0, 1)).reshape(2, -1)  # each line's head and tail pair rows
    on = np.flatnonzero(sys.load_bank.y_linear)  # the impedance-loaded buses
    loaded, n_y = v0 + 2 * on[:, None], 4 * len(on)
    # Unit entries first: angles, windings, stator injections, the load
    # blocks (zero), E i_T at heads and tails, -E^T v; then d and r.
    r = np.concatenate((rows[:n_g], rows[lay.sl_i], rows[lay.sl_vg],
                        (loaded + (0, 0, 1, 1)).ravel(), ends[0], ends[1],
                        lines, lines, rows[lay.sl_omega], lines))
    c = np.concatenate((rows[lay.sl_omega], rows[lay.sl_i],
                        lay.pair_rows[:2 * n_g],
                        (loaded + (0, 1, 0, 1)).ravel(), lines, lines,
                        ends[0], ends[1], rows[lay.sl_omega], lines))
    unit = np.repeat([-1.0, 0.0, 1.0, 0.0, 1.0, -1.0, -1.0, 1.0],
                     [n_g, 5 * n_g, 2 * n_g, n_y, n2, n2, n2, n2])
    res = np.concatenate((unit, sys.params.d, np.repeat(net.r_T, 2)))
    field = 0.0 - res / sys.mass[r]  # the explicit zeros stay +0.0
    at = slice(8 * n_g, 8 * n_g + n_y)
    y = (1.0 / -sys.mass[loaded[:, 0]]) * sys.load_bank.y_linear[on]
    field[at] = np.stack((y.real, -y.imag, y.imag, y.real), axis=-1).ravel()
    order = np.argsort(r * sys.n_x + c)
    return c[order], np.searchsorted(r[order], rows), res[order], field[order]


def _linear(x, cols, values, starts):
    """The CSR rows (``cols``, ``values``, ``starts``) times states x of
    shape (..., n_x), one gather and one ``reduceat`` on the last axis."""
    return np.add.reduceat(x.take(cols, axis=-1) * values, starts, axis=-1)


def assemble(machines, machine_buses, network, loads=None, bus_ids=None):
    """Validate components, reorder buses so machines come first, and build
    the :class:`PowerSystem`.

    ``machine_buses`` gives, per machine, the index of its bus in the input
    ordering of the checked :class:`~gridstate.network.Network` and
    ``loads``. All validation problems are aggregated into a single report.
    """
    problems = []
    n_v = network.n_v
    if len(machines) < 1:
        problems.append("need at least one machine")
    loads = [Load.none()] * n_v if loads is None else loads
    bus_ids = list(range(n_v)) if bus_ids is None else bus_ids

    params = stack_params(machines)
    L0 = params.rotor_frame_inductance()
    for k, violation in enumerate(validate_params(params, L0)):
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
        raise ValidationError("system validation failed:\n  "
                              + "\n  ".join(problems), problems)

    # Machine buses (``seen``) first, in machine order, then the rest in
    # input order; the checked network is only relabelled.
    order = list(machine_buses) + [b for b in range(n_v) if b not in seen]
    return PowerSystem(machines, params, L0, network.relabel(order),
                       [loads[b] for b in order], [bus_ids[b] for b in order],
                       order)


def vector_field(sys, x, u):
    """Time derivative of the full power system state, for states of shape
    (..., n_x): the impedance loads are rows of ``sys.field_rows``."""
    _, b_omega, b_i, b_v, _ = sys.layout._blocks
    cols, starts, _, values = sys.linear_rows
    dx = _linear(x, cols, values, starts)
    i, di, torque = _machines(sys, x, x[b_omega], u)
    dx[b_omega] += (u[:sys.n_g] - torque) * sys._inv_m
    dx[b_i].reshape(i.shape)[...] = di
    if sys.load_bank.custom or not sys.load_bank.constant:
        dx[b_v] -= sys._field_loads.load_currents(x[b_v]) / sys.mass[b_v]
    return dx


def steady_field(sys, x, omega0):
    """Rotating steady-state vector field: angles advance at omega0, speeds
    hold, and every planar pair (stator currents, bus voltages, line
    currents) rotates rigidly at omega0, omega0 G x. States are (..., n_x)."""
    f = omega0 * sys.layout.rotate(x)
    f[..., sys.layout.sl_theta] = omega0
    return f


def residual(sys, x, u, omega0):
    """Gap between the rotating steady-state dynamics and the model dynamics,
    scaled by the (block-diagonal) mass matrix. Zero exactly on steady
    states at frequency omega0 with input u. States are (..., n_x)."""
    b_theta, b_omega, b_i, b_v, _ = sys.layout._blocks
    cols, starts, values, _ = sys.linear_rows
    rho = _linear(x, cols, values, starts)
    i, rho_i, torque = _machines(sys, x, x[b_omega], u, omega0)
    rho[b_theta] += omega0
    rho[b_omega] += torque - u[:sys.n_g]
    rho[b_i].reshape(i.shape)[...] = rho_i
    rho[b_v] += sys.load_currents(x[b_v])
    net = slice(sys.layout.sl_v.start, None)  # the bus and line pairs
    rho[..., net] += omega0 * sys.mass[net] * rotate_pairs(x[..., net])
    return rho


def residual_block_norms(sys, rho):
    """Max-norm of each residual block (NaN if it holds a NaN), keyed by what
    the block balances; on a stack (..., n_x), the max over the stack."""
    size = np.maximum.reduceat(np.abs(rho), sys.layout._block_starts, axis=-1)
    return dict(zip(("frequency", "torque", "windings", "nodes", "lines"),
                    size.reshape(-1, 5).max(axis=0, initial=0.0).tolist()))


def invariance_defect(sys, x, u, omega0, rho=None):
    """|omega0| times the largest stator, bus or line pair entry of the
    residual at (x, u); ``rho`` is that residual when the caller has it.

    The steady field f advances the angles and turns every planar pair at
    omega0; with loads that commute with rotations the residual turns
    along, so D rho[f] = omega0 G rho (:meth:`StateLayout.rotate`), and
    this is its max-norm, exact at any x. A custom load's commutator with
    rotations is left out: the certificate's rotation probe tests it. On a
    stack (..., n_x), the max over the stack, as
    :func:`residual_block_norms` reads it.
    """
    if rho is None:
        rho = residual(sys, x, u, omega0)
    return abs(omega0) * float(abs(rho[..., sys.layout.pair_rows]).max())


def tolerance_scale(x, u):
    """Relative gauge for residual thresholds: max(1, |x|_inf, |u|_inf)."""
    return max(1.0, float(abs(x).max()), float(abs(u).max()))


def total_energy(sys, x):
    """Stored energy: winding and line magnetic energy, rotor kinetic energy,
    bus capacitor energy."""
    theta, omega, i, v, i_T = sys.layout.split(x)
    i, L = i.reshape(sys.n_g, 5), sys.inductance_stack(theta)
    _, m, _, c, l_T = sys.layout.split(sys.mass)
    e_mag = 0.5 * float(np.einsum("ka,kab,kb->", i, L, i))
    e_kin = 0.5 * float(np.sum(m * omega**2))
    e_cap = 0.5 * float(np.sum(c * v**2))
    e_lines = 0.5 * float(np.sum(l_T * i_T**2))
    return e_mag + e_kin + e_cap + e_lines

