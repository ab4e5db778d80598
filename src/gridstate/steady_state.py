"""Constructive steady-state computation and certification.

Pipeline: fix the machine-bus voltage phasors, build the constant complex
admittance of :mod:`gridstate.network` once per solve and eliminate from
it the load buses whose balance is linear (no load or an impedance load),
Newton-solve the reduced nodal current balance for the other load-bus
voltages (pairs read as alpha + j beta; each iteration rewrites only its
Jacobian's diagonal blocks, and just the admittance's scatter positions,
set by the edge list, stay on the network), read the stator currents off
the machine rows of the same reduction and the line currents off the
voltage drops, then recover each machine's rotor angle, excitation
current and inputs in closed form. The recovered point is certified by
one gate per condition of a steady state: one full-system residual
evaluation must vanish block by block (the machine and network balance at
omega0), and every custom load must pass a rotation probe (the shipped
loads commute with rotations by construction). The residual's derivative
along the rotating flow, |omega0| times its largest pair entry, is
reported with them but decides nothing.

The recovery is one array pass over the machines, with terminal voltages
v and stator currents i as complex numbers alpha + j beta:
a = -j (v - (r_s + j omega0 l_s) i), b = -omega0 l_sa conj(i),
theta = arg(conj(b) - a), i_f = Re(e^{-j theta} a + e^{j theta} b) /
(omega0 l_sf) and nu = j (a + e^{2j theta} b), computed once: the flip by
pi to the antipodal solution the polarization may ask for negates
e^{j theta} and i_f, not nu. The tests hold it against a scalar reference
that works one machine at a time in 2x2 rotation matrices.
"""

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InfeasibleSteadyStateError, LoadDomainError, SolverError
from .frame import as_complex, real_blocks
from .loads import equivariance_defect
from .network import admittance
from .system import (invariance_defect, residual, residual_block_norms,
                     tolerance_scale)

log = logging.getLogger("gridstate.steady_state")

RECOVERY_TOL = 1e-9          # relative residual allowed on the recovery equations
DEGENERACY_BAND = 1e-9       # relative band flagging nu ~ 0 / equal ellipse radii
CERT_RESIDUAL_TOL = 1e-9     # certificate: |residual|_inf <= tol * scale
CERT_INVARIANCE_TOL = 1e-5   # reported only: invariance defect / (tol * scale)
CERT_EQUIVARIANCE_TOL = 1e-12
# Re(y _PAIR_FORM) is the real form [[g, -b], [b, g]] of y = g + j b.
_PAIR_FORM = np.array([[1.0, 1j], [-1j, 1.0]])


@dataclass
class NewtonOptions:
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float)) \
                or not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int) \
                or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class OperatingSpec:
    """Prescribed operating point: frequency, machine-bus voltage phasors
    (magnitude, angle in radians, machine order), rotor polarizations."""

    omega0: float
    gen_voltage_mag: np.ndarray
    gen_voltage_angle: np.ndarray
    sigma: np.ndarray
    newton: NewtonOptions = field(default_factory=NewtonOptions)


@dataclass
class NetworkSolution:
    """A point satisfying the rotating network equations."""

    i_s: np.ndarray
    v: np.ndarray
    i_T: np.ndarray
    iterations: int
    residual_history: list


@dataclass
class MachineRecovery:
    """Closed-form machine steady states behind a solved network point, one
    entry per machine in machine order: (n_g,) arrays, ``nu`` (n_g, 2).

    ``nu`` is the stator voltage left over after the impedance drop, i.e.
    the voltage the excitation winding must induce; ``case`` labels each
    machine's branch: the degenerate nu_zero, omega_zero and alpha_equal,
    or the generic "regular". The damper currents vanish in steady state.
    """

    theta: np.ndarray
    i_f: np.ndarray
    tau_m: np.ndarray
    v_f: np.ndarray
    nu: np.ndarray
    sigma: np.ndarray
    case: list
    excitation_residual: np.ndarray  # relative defect, excitation equation
    alignment_residual: np.ndarray   # relative defect, angle alignment


@dataclass
class FullSteadyState:
    """A candidate (x, u) at omega0, with the recovery and network solution
    behind it when computed; :func:`verify_steady_state` certifies it."""

    x: np.ndarray
    u: np.ndarray
    omega0: float
    recovery: MachineRecovery = None
    network: NetworkSolution = None


@dataclass
class VerificationReport:
    residual_blocks: dict
    residual_inf: float
    scale: float
    invariance_defect: float
    equivariance_defects: list
    certificate: bool
    failures: list
    tolerances: dict
    margins: dict  # value / (tol * scale); above 1 fails, except invariance

    def as_dict(self):
        return asdict(self)


def _recover(p, v, i_s, omega0, sigma):
    """Closed-form recovery of a stack of machines into one record:
    constants ``p`` with (n,) array fields, complex terminal voltages and
    stator currents (n,), polarizations (n,)."""
    sigma = np.asarray(sigma)
    bad = (sigma != 1) & (sigma != -1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"machine {k + 1}: sigma must be -1 or +1, "
                         f"got {sigma[k]!r}")
    n, w_f = len(v), omega0 * p.l_sf
    a = -1j * (v - (p.r_s + 1j * omega0 * p.l_s) * i_s)
    b = -omega0 * p.l_sa * np.conj(i_s)
    if omega0 == 0.0:
        # The frequency is shared, so this branch holds for every machine.
        # Here a = -j (v - r_s i_s) and b = 0.
        nu_norm = np.abs(a)
        infeasible = nu_norm > RECOVERY_TOL * np.maximum(1.0, np.abs(v))
        if infeasible.any():
            k = int(np.argmax(infeasible))
            raise InfeasibleSteadyStateError(
                f"machine {k + 1}: no steady state at zero frequency: the net "
                f"stator voltage |v - r_s i_s| = {abs(a[k]):.3e} is nonzero "
                "(any rotor angle and excitation current would leave it "
                "unbalanced)")
        theta, i_f = np.zeros((2, n))
        z, nu = np.ones(n, dtype=complex), 1j * a
        degenerate, cases = np.ones(n, dtype=bool), ["omega_zero"] * n
    else:
        # The quadrature part Im(e^{-j theta} a + e^{j theta} b) is linear
        # in (cos, sin) of the angle; its zero arg(conj(b) - a) is defined
        # unless a = conj(b), equal radii included. Near-equal radii, where
        # the ellipse may collapse through the origin, are only flagged.
        ra, rb = np.abs(a), np.abs(b)
        alpha_equal = np.abs(ra - rb) <= DEGENERACY_BAND * (ra + rb)
        d = np.conj(b) - a
        theta = np.arctan2(d.imag, d.real)
        z = np.exp(1j * theta)
        zb = z * b
        demand = (np.conj(z) * a + zb).real  # omega0 l_sf i_f
        i_f = demand / w_f
        nu = 1j * (a + z * zb)
        nu_norm = np.abs(nu)
        degenerate = nu_norm <= DEGENERACY_BAND * np.abs(v)  # nu ~ 0
        # The polarization fixes the sign of omega0 * l_sf * i_f.
        flip = ~degenerate & (sigma * demand < 0.0)
        np.add(theta, np.pi, out=theta, where=flip)
        np.negative(z, out=z, where=flip)
        np.negative(i_f, out=i_f, where=flip)
        cases = ["nu_zero" if nz else "alpha_equal" if ae else "regular"
                 for nz, ae in zip(degenerate.tolist(), alpha_equal.tolist())]

    gauge = np.maximum(1.0, nu_norm)
    exc_res = np.abs(w_f * i_f - sigma * nu_norm) / gauge
    ali_res = np.abs(1j * z * nu_norm - sigma * nu) / gauge
    if degenerate.any():
        for k in np.flatnonzero(degenerate).tolist():
            log.warning("machine %d: recovery hit degenerate case %r; this does "
                        "not define a sensible operating point", k + 1, cases[k])
        # Degenerate machines have i_f = 0 and nothing left to balance; a
        # round rotor (b = 0) balances at any angle, torque-free: theta = 0.
        still = degenerate & (b == 0.0)
        theta[still], z[still], i_f[degenerate] = 0.0, 1.0, 0.0
        exc_res[degenerate] = ali_res[degenerate] = 0.0
    bad = np.maximum(exc_res, ali_res) > RECOVERY_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise SolverError(
            f"machine {k + 1}: machine recovery inconsistent: excitation "
            f"residual {exc_res[k]:.3e}, alignment residual {ali_res[k]:.3e} "
            f"exceed {RECOVERY_TOL:.1e}")

    # The torque (L0 i_r) . (J i_r) at i_r = (e^{-j theta} i_s, i_f, 0, 0).
    i_r = np.conj(z) * i_s
    tau_m = p.d * omega0 - i_r.imag * (2.0 * p.l_sa * i_r.real + p.l_sf * i_f)
    return MachineRecovery(
        theta=theta, i_f=i_f, tau_m=tau_m, v_f=p.r_f * i_f,
        nu=nu.view(float).reshape(-1, 2), sigma=sigma.astype(int), case=cases,
        excitation_residual=exc_res, alignment_residual=ali_res)


def _failure_tail(sys, vc, history):
    """How a failed solve ended: the first, smallest and last entries of its
    residual history, if any, and the load bus with the lowest |v| at
    ``vc``, the voltages of all buses."""
    tail = [f"residual history {history[0]:.3e} first, {min(history):.3e} "
            f"smallest, {history[-1]:.3e} last" if history
            else "no residual evaluated"]
    if sys.n_l:  # a machine-bus load can leave its domain with no load bus
        weakest = sys.n_g + int(np.argmin(abs(vc[sys.n_g:])))
        tail.append(f"lowest load-bus voltage |v| = {abs(vc[weakest]):.3e} "
                    f"at bus {sys.bus_ids[weakest]!r}")
    return "; ".join(tail)


def _diagonal_blocks(jac):
    """Writable view, (n, 2, 2), of the diagonal 2x2 blocks of a
    C-contiguous (2n, 2n) matrix, from its strides: each block starts
    4n + 2 entries after the one before, its second row 2n entries after
    its first."""
    n, step = len(jac) // 2, jac.itemsize
    return np.ndarray((n, 2, 2), buffer=jac, strides=(
        (4 * n + 2) * step, 2 * n * step, step))


def solve_network(sys, spec):
    """Solve the nodal current balance with machine-bus voltages pinned.

    The balance is one product of the complex nodal admittance with the
    complex voltages. With G the machine buses, N the load buses of
    exponent k > 0 and L the linear ones (no load or an impedance load),
    one complex solve on the constant admittance Y (lines, shunts
    j omega0 c, impedance loads) eliminates L once (Kron reduction; Kron,
    Tensor Analysis of Networks, 1939; Dorfler & Bullo, IEEE TCAS-I 2013):
    v_L = -Y_LL^-1 (Y_LG v_G + Y_LN v_N). Newton iteration (Newton power
    flow, Tinney & Walker, Proc. IEEE 1967) then runs on v_N alone. A load
    draws i = y |v|^-k v, whose derivative on the pair is the real form of
    y |v|^-k minus k i v^T / |v|^2, so the reduced Jacobian is the real
    form of R = Y_NN - Y_NL Y_LL^-1 Y_LN plus these load terms: the Schur
    complement of the full one, whose iterates it follows from the first
    step on. Each iteration writes only its diagonal 2x2 blocks, through a
    strided view, as Re((R_kk + y |v|^-k) [[1, j], [-j, 1]]) minus the
    rank-one terms; with impedance loads only there is no step, one linear
    solve. ``residual_history`` holds the largest reduced imbalance at each
    iterate ([0.0] with no nonlinear bus). Minus the machine rows of the
    reduction, (Y v)_G = K_G h, and their k > 0 loads' currents are the
    stator currents; the certificate checks the full balance. The line
    currents are the voltage drops over the branch impedances.
    """
    n_g, net, bank = sys.n_g, sys.network, sys.load_bank
    opts, omega0 = spec.newton, spec.omega0
    if bank.custom:
        raise SolverError(
            "network solve handles the shipped load types only; custom loads "
            f"at bus(es) {[sys.bus_ids[k] for k, _ in bank.custom]!r}")

    order, n_k = bank.solve_order, bank.n_kept
    nonlinear, linear = order[n_g:n_k], order[n_k:]
    vc = np.empty(sys.n_v, dtype=complex)
    vc[:n_g] = spec.gen_voltage_mag * np.exp(1j * spec.gen_voltage_angle)
    v = vc.view(float)  # the pairs, a view: updates of vc show in v
    # h = (1, v_N): the nonlinear buses' voltages behind a leading one, on
    # which the linear buses' voltages and the reduced balance are linear.
    # Newton updates their pairs p through a view of h.
    h = np.empty(n_k - n_g + 1, dtype=complex)
    h[0], h[1:] = 1.0, float(spec.gen_voltage_mag.sum()) / n_g  # the mean
    p = h[1:].view(float)
    p_n = p.reshape(-1, 2)
    # Y in blocks G, N, L ([:n_g], [n_g:n_k], [n_k:]), built in solve order;
    # the machine columns at the pinned voltages add up to one column of
    # known currents, in the last one: A h gives the rows of Y (v_G, v_N, 0).
    P = admittance(sys.solve_order_network, bank.y_linear[order], omega0)
    P[:, n_g - 1] = P[:, :n_g] @ vc[:n_g]
    A = P[:, n_g - 1:n_k]
    try:
        S = -np.linalg.solve(P[n_k:, n_k:], A[n_k:])  # v_L = S h
    except np.linalg.LinAlgError:
        # Re(Y_LL) is a grounded Laplacian of positive line conductances
        # plus g >= 0 on its diagonal, positive definite, so only
        # non-finite entries get here; the residual reports them.
        S = np.full((len(linear), len(h)), np.nan, dtype=complex)
    K = A[:n_k] + P[:n_k, n_k:] @ S  # (Y v)_G = K_G h, (Y v)_N = M h
    M = K[n_g:]  # N's reduced balance: M h + i_N

    def spread():  # the voltages of all buses from h
        vc[nonlinear] = h[1:]
        vc[linear] = S @ h

    spread()
    history = []
    for iterations in range(1, opts.max_iter + 1):
        try:
            y_load = bank.admittance(vc)
        except LoadDomainError as err:
            raise SolverError(
                f"network solve left a load's domain at iteration "
                f"{iterations}: {err}; {_failure_tail(sys, vc, history)}"
            ) from err
        y_n = y_load[nonlinear]
        i_n = y_n * h[1:]
        balance = (M @ h + i_n).view(float)
        res = float(abs(balance).max(initial=0.0))
        history.append(res)
        log.debug("newton iter %d: residual %.3e", iterations, res)
        top = float(abs(v).max())  # all voltages, the linear buses' too
        if not math.isfinite(res + top):
            raise SolverError(f"network solve hit a non-finite residual "
                              f"({res}) or voltage ({top}) at iteration "
                              f"{iterations}")
        if res <= opts.tol * max(1.0, top):
            break
        if iterations == 1:  # the Jacobian's workspace, at the first step
            jac = real_blocks(M[:, 1:])
            jac_diag = _diagonal_blocks(jac)
            r_diag = M.diagonal(1)[:, None]
            k = bank.k[nonlinear]
        jac_diag[...] = ((r_diag + y_n[:, None])[..., None] * _PAIR_FORM).real
        w = k / (p_n ** 2).sum(axis=1)  # |v| >= v_min > 0 where k > 0
        jac_diag -= (w[:, None, None] * i_n.view(float).reshape(-1, 2, 1)
                     * p_n[:, None, :])
        try:
            p -= np.linalg.solve(jac, balance)
        except np.linalg.LinAlgError as err:
            raise SolverError(
                f"singular Jacobian in network solve at iteration "
                f"{iterations}; {_failure_tail(sys, vc, history)}") from err
        spread()
    else:
        raise SolverError(
            f"network solve did not converge in {opts.max_iter} iterations; "
            f"{_failure_tail(sys, vc, history)}")

    i_g = (y_load - bank.y_linear)[:n_g] * vc[:n_g]  # the k > 0 loads'
    i_s = -(K[:n_g] @ h + i_g).view(float)  # the machine rows balance
    z = net.r_T + 1j * omega0 * net.l_T
    i_T = ((vc[net.heads] - vc[net.tails]) / z).view(float)
    return NetworkSolution(i_s=i_s, v=v, i_T=i_T, iterations=iterations,
                           residual_history=history)


def recover_all(sys, spec, net):
    """Recovery of all machines behind a network solution, in one pass."""
    return _recover(sys.params, as_complex(net.v[:2 * sys.n_g]),
                    as_complex(net.i_s), spec.omega0, spec.sigma)


def assemble_steady_state(sys, net, recovery, omega0):
    """Stack a network solution and the machine recovery into a full state
    and input, unchecked: :func:`verify_steady_state` certifies them."""
    i = np.zeros((sys.n_g, 5))  # the damper currents stay zero
    i[:, :2] = net.i_s.reshape(-1, 2)
    i[:, 2] = recovery.i_f
    x = sys.layout.pack(recovery.theta, omega0, i, net.v, net.i_T)
    u = sys.layout.pack_input(recovery.tau_m, recovery.v_f)
    return FullSteadyState(x=x, u=u, omega0=omega0, recovery=recovery,
                           network=net)


def compute_steady_state(sys, spec):
    """Network solve, machine recovery, assembly: an uncertified candidate."""
    net = solve_network(sys, spec)
    recovery = recover_all(sys, spec, net)
    return assemble_steady_state(sys, net, recovery, spec.omega0)


def verify_steady_state(sys, ss):
    """Numeric certificate that (x, u) is a synchronous steady state.

    Two gates, one per condition: the full-system residual vanishes
    (machine and network balance at frequency omega0), and every load
    commutes with rotations: the shipped ones, y |v|^-k v, by
    construction, custom ones by the rotation probe. The residual's
    derivative along the rotating flow (:func:`invariance_defect`, read off
    the same residual) is reported, not gated. Thresholds are relative to
    the state/input scale; ``margins`` holds each value over its threshold.
    """
    rho = residual(sys, ss.x, ss.u, ss.omega0)
    # The blocks partition the state; a NaN block makes |rho|_inf NaN.
    blocks = residual_block_norms(sys, rho)
    rho_inf = max(blocks.values(), key=lambda b: b if b == b else math.inf)
    scale = tolerance_scale(ss.x, ss.u)
    inv = invariance_defect(sys, ss.x, ss.u, ss.omega0, rho)
    v = ss.x[sys.layout.sl_v]
    equiv = [0.0] * sys.n_v
    for k, load in sys.load_bank.custom:
        pair = v[2 * k:2 * k + 2]
        equiv[k] = float(equivariance_defect(load, pair)) / max(
            1.0, float(np.hypot(*np.asarray(load.current(pair), dtype=float))))
    tol = {"residual": CERT_RESIDUAL_TOL, "invariance": CERT_INVARIANCE_TOL,
           "equivariance": CERT_EQUIVARIANCE_TOL}
    margins = {"residual": rho_inf / (CERT_RESIDUAL_TOL * scale),
               "frequency": blocks["frequency"] / (CERT_RESIDUAL_TOL * scale),
               "invariance": inv / (CERT_INVARIANCE_TOL * scale),
               "equivariance": max(equiv) / CERT_EQUIVARIANCE_TOL}

    failures = []
    if not margins["residual"] <= 1.0:  # NaN fails every gate
        worst = max(blocks, key=blocks.get)
        failures.append(
            f"residual {rho_inf:.3e} exceeds {CERT_RESIDUAL_TOL:.1e}*scale "
            f"(worst block: {worst} = {blocks[worst]:.3e})")
    if not margins["frequency"] <= 1.0:
        failures.append("rotor speeds deviate from omega0: max |omega0 - "
                        f"omega| = {blocks['frequency']:.3e}")
    bad_loads = [sys.bus_ids[k] for k, _ in sys.load_bank.custom
                 if not equiv[k] <= CERT_EQUIVARIANCE_TOL]
    if bad_loads:
        failures.append(
            f"load model at bus(es) {bad_loads!r} is not rotation-equivariant")
    return VerificationReport(
        residual_blocks=blocks, residual_inf=rho_inf, scale=scale,
        invariance_defect=inv, equivariance_defects=equiv,
        certificate=not failures, failures=failures, tolerances=tol,
        margins=margins)
