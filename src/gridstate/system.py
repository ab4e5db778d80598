"""Whole-system assembly: state layout, vector fields, residual, invariance.

The flat state vector stacks, in this order: machine rotor angles, rotor
speeds, machine winding currents (5 per machine), bus voltage pairs, line
current pairs. Buses are ordered so machine k sits at bus k; the assembler
permutes user input into this order and remembers the permutation.
"""

import numpy as np

from . import machine as machine_mod
from .errors import LoadDomainError, ValidationError
from .frame import rotate_pairs
from .loads import Load, LoadBank
from .machine import validate_params
from .network import NetworkParams, Topology, incidence_expand


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

    def pack(self, theta, omega, i, v, i_T):
        x = np.empty(self.n_x)
        x[self.sl_theta] = theta
        x[self.sl_omega] = omega
        x[self.sl_i] = np.asarray(i).ravel()
        x[self.sl_v] = v
        x[self.sl_iT] = i_T
        return x

    def split(self, x):
        """Views (theta, omega, i, v, i_T) into a flat state vector."""
        return (x[self.sl_theta], x[self.sl_omega], x[self.sl_i],
                x[self.sl_v], x[self.sl_iT])

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
        self.layout = StateLayout(len(machines), topology.n_v, topology.n_t)

        self.incidence2 = incidence_expand(topology)
        self._c2 = np.repeat(network.c, 2)
        self._r_T2 = np.repeat(network.r_T, 2)
        self._l_T2 = np.repeat(network.l_T, 2)

        self._m = np.array([p.m for p in self.machines])
        self._d = np.array([p.d for p in self.machines])
        self._r_winding = np.array([p.resistance_diag() for p in self.machines])
        self._L_fixed = np.zeros((self.n_g, 5, 5))
        for k, p in enumerate(self.machines):
            self._L_fixed[k, 2:, 2:] = p.rotor_inductance()
            self._L_fixed[k, :2, :2] = p.l_s * np.eye(2)
        self._l_sa = np.array([p.l_sa for p in self.machines])
        self._l_sf = np.array([p.l_sf for p in self.machines])
        self._l_sd = np.array([p.l_sd for p in self.machines])
        self._l_sq = np.array([p.l_sq for p in self.machines])
        self.loads = tuple(loads)
        self.load_bank = LoadBank(self.loads, self.bus_ids)

    @property
    def n_g(self):
        return len(self.machines)

    @property
    def n_v(self):
        return self.topology.n_v

    @property
    def n_l(self):
        return self.n_v - self.n_g

    @property
    def n_t(self):
        return self.topology.n_t

    @property
    def n_x(self):
        return self.layout.n_x

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
        """Winding inductance matrices of all machines, shape (n_g, 5, 5)."""
        L = self._L_fixed.copy()
        c1, s1 = np.cos(theta), np.sin(theta)
        c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
        L[:, 0, 0] += self._l_sa * c2
        L[:, 0, 1] += self._l_sa * s2
        L[:, 1, 0] += self._l_sa * s2
        L[:, 1, 1] -= self._l_sa * c2
        L[:, 0, 2] = c1 * self._l_sf
        L[:, 0, 3] = c1 * self._l_sd
        L[:, 0, 4] = s1 * self._l_sq
        L[:, 1, 2] = s1 * self._l_sf
        L[:, 1, 3] = s1 * self._l_sd
        L[:, 1, 4] = -c1 * self._l_sq
        L[:, 2:, :2] = np.swapaxes(L[:, :2, 2:], 1, 2)
        return L

    def load_currents(self, v):
        """Per-bus load currents stacked into a 2*n_v vector: the shipped
        loads in one expression over the complex voltages (see
        :class:`LoadBank`), custom loads one call each."""
        bank = self.load_bank
        vc = np.ascontiguousarray(v, dtype=float).view(complex)
        i_l = np.zeros(len(vc), dtype=complex)
        vb = vc[bank.index]
        i_l[bank.index] = bank.admittance(vb) * vb
        i_l = i_l.view(float)
        for k, load in bank.custom:
            try:
                i_l[2 * k:2 * k + 2] = load.current(v[2 * k:2 * k + 2])
            except LoadDomainError as err:
                raise LoadDomainError(f"bus {self.bus_ids[k]!r}: {err}",
                                      bus=self.bus_ids[k]) from err
        return i_l


def _rotate_stator(block):
    """Apply the stator rotation generator to (n_g, 5) current blocks."""
    out = np.zeros_like(block)
    out[:, 0] = -block[:, 1]
    out[:, 1] = block[:, 0]
    return out


def _machine_block(sys, theta, omega, i, v, v_f):
    """Terms shared by the vector field and the residual: the inductance
    stack L, L J i, the electrical torque, the induced voltage and the
    voltage applied to the windings (terminal pair, field voltage)."""
    L = sys.inductance_stack(theta)
    Ji = _rotate_stator(i)
    Li = np.einsum("kab,kb->ka", L, i)
    LJi = np.einsum("kab,kb->ka", L, Ji)
    tau_e = np.einsum("ka,ka->k", Li, Ji)
    v_ind = omega[:, None] * (_rotate_stator(Li) - LJi)

    applied = np.zeros((sys.n_g, 5))
    applied[:, 0] = v[0:2 * sys.n_g:2]
    applied[:, 1] = v[1:2 * sys.n_g:2]
    applied[:, 2] = v_f
    return L, LJi, tau_e, v_ind, applied


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
    """Time derivative of the full power system state."""
    lay = sys.layout
    theta, omega, i_flat, v, i_T = lay.split(x)
    tau_m, v_f = lay.split_input(u)
    i = i_flat.reshape(sys.n_g, 5)

    L, _, tau_e, v_ind, applied = _machine_block(sys, theta, omega, i, v, v_f)
    winding_rhs = -sys._r_winding * i + applied - v_ind
    di = np.linalg.solve(L, winding_rhs[..., None])[..., 0]

    i_l = sys.load_currents(v)
    i_in = i_l.copy()
    i_in[:2 * sys.n_g] += i[:, :2].ravel()
    dv = (-sys.incidence2 @ i_T - i_in) / sys._c2
    di_T = (-sys._r_T2 * i_T + sys.incidence2.T @ v) / sys._l_T2

    domega = (tau_m - sys._d * omega - tau_e) / sys._m
    return lay.pack(omega, domega, di, dv, di_T)


def steady_field(sys, x, omega0):
    """Rotating steady-state vector field: angles advance at omega0, speeds
    hold, and every planar pair (stator currents, bus voltages, line
    currents) rotates rigidly at omega0."""
    lay = sys.layout
    _, _, i_flat, v, i_T = lay.split(x)
    i = i_flat.reshape(sys.n_g, 5)
    return lay.pack(
        np.full(sys.n_g, omega0),
        np.zeros(sys.n_g),
        omega0 * _rotate_stator(i),
        omega0 * rotate_pairs(v),
        omega0 * rotate_pairs(i_T),
    )


def residual(sys, x, u, omega0):
    """Gap between the rotating steady-state dynamics and the model dynamics,
    scaled by the (block-diagonal) mass matrix. Zero exactly on steady
    states at frequency omega0 with input u."""
    lay = sys.layout
    theta, omega, i_flat, v, i_T = lay.split(x)
    tau_m, v_f = lay.split_input(u)
    i = i_flat.reshape(sys.n_g, 5)

    _, LJi, tau_e, v_ind, applied = _machine_block(sys, theta, omega, i, v, v_f)

    rho_freq = omega0 - omega
    rho_torque = sys._d * omega + tau_e - tau_m
    rho_windings = sys._r_winding * i + omega0 * LJi - applied + v_ind

    i_l = sys.load_currents(v)
    inj = np.zeros(2 * sys.n_v)
    inj[:2 * sys.n_g] = i[:, :2].ravel()
    rho_nodes = omega0 * sys._c2 * rotate_pairs(v) + inj + sys.incidence2 @ i_T + i_l
    rho_lines = sys._r_T2 * i_T + omega0 * sys._l_T2 * rotate_pairs(i_T) \
        - sys.incidence2.T @ v
    return lay.pack(rho_freq, rho_torque, rho_windings, rho_nodes, rho_lines)


def residual_block_norms(sys, rho):
    """Max-norm of each residual block, keyed by what the block balances."""
    lay = sys.layout
    names = ("frequency", "torque", "windings", "nodes", "lines")
    slices = (lay.sl_theta, lay.sl_omega, lay.sl_i, lay.sl_v, lay.sl_iT)
    return {name: float(np.max(np.abs(rho[sl]), initial=0.0))
            for name, sl in zip(names, slices)}


def invariance_defect(sys, x, u, omega0, h=1e-7):
    """Forward-difference directional derivative of the residual along the
    steady-state field, max-norm.

    Near zero at a steady state with conforming loads and constant inputs
    (the residual is constant along the rotating flow); bounded away from
    zero when a load model breaks rotation equivariance.
    """
    rho0 = residual(sys, x, u, omega0)
    rho1 = residual(sys, x + h * steady_field(sys, x, omega0), u, omega0)
    return float(np.max(np.abs(rho1 - rho0))) / h


def tolerance_scale(x, u):
    """Relative gauge for residual thresholds: max(1, |x|_inf, |u|_inf)."""
    return max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(u))))


def mass_matrix(sys, x):
    """Dense block-diagonal mass matrix at state x (angles/speeds/fluxes/
    charges block scaling). Intended for cross-checks, not hot paths."""
    lay = sys.layout
    theta = x[lay.sl_theta]
    diag = np.ones(sys.n_x)
    diag[lay.sl_omega] = sys._m
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
    e_kin = 0.5 * float(np.sum(sys._m * omega**2))
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


def single_machine_rhs(sys, k, x, u):
    """Reference path: evaluate machine k's dynamics through the scalar
    single-machine module. Used to cross-check the vectorized field."""
    lay = sys.layout
    theta, omega, i_flat, v, i_T = lay.split(x)
    tau_m, v_f = lay.split_input(u)
    i = i_flat.reshape(sys.n_g, 5)
    state = machine_mod.MachineState(
        theta=float(theta[k]), omega=float(omega[k]),
        i_s=i[k, :2].copy(), i_f=float(i[k, 2]),
        i_d=float(i[k, 3]), i_q=float(i[k, 4]),
    )
    v_term = v[2 * k:2 * k + 2]
    return machine_mod.machine_rhs(sys.machines[k], state, v_term,
                                   float(tau_m[k]), float(v_f[k]))
