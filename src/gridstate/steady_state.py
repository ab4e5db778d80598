"""Constructive steady-state computation and certification.

Pipeline: fix the machine-bus voltage phasors, Newton-solve the nodal
current balance for the load-bus voltages on the complex admittance of
:mod:`gridstate.network` (pairs read as alpha + j beta; the admittance and
its Jacobian are built once per solve, and each iteration rewrites only
their diagonals), read off the injected stator currents and line
currents, then recover each machine's rotor angle, excitation current and
inputs in closed form. The recovered point is certified from one
full-system residual evaluation, read in one pass: its size per block,
its exact derivative along the rotating flow, and a rotation probe of any
custom load (the shipped loads commute with rotations by construction).

The recovery is one array pass over the machines, with terminal voltages
v and stator currents i as complex numbers alpha + j beta:
a = -j (v - (r_s + j omega0 l_s) i), b = -omega0 l_sa conj(i),
theta = arctan2(-(Im a + Im b), Re b - Re a),
i_f = Re(e^{-j theta} a + e^{j theta} b) / (omega0 l_sf) and
nu = j (a + e^{2j theta} b). The tests hold it against a scalar reference
that works one machine at a time in 2x2 rotation matrices.
"""

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InfeasibleSteadyStateError, LoadDomainError, SolverError
from .frame import as_complex, real_blocks
from .loads import equivariance_defect
from .network import admittance, line_admittance, solve_branch_currents
from .system import (invariance_defect, residual, residual_block_norms,
                     tolerance_scale)

log = logging.getLogger("gridstate.steady_state")

RECOVERY_TOL = 1e-9          # relative residual allowed on the recovery equations
DEGENERACY_BAND = 1e-9       # relative band flagging nu ~ 0 / equal ellipse radii
CERT_RESIDUAL_TOL = 1e-9     # certificate: |residual|_inf <= tol * scale
CERT_INVARIANCE_TOL = 1e-5   # certificate: invariance defect <= tol * scale
CERT_EQUIVARIANCE_TOL = 1e-12


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

    def gen_voltages(self):
        """Machine-bus voltage pairs stacked into a 2*n_g vector."""
        out = np.empty(2 * len(self.gen_voltage_mag))
        out[0::2] = self.gen_voltage_mag * np.cos(self.gen_voltage_angle)
        out[1::2] = self.gen_voltage_mag * np.sin(self.gen_voltage_angle)
        return out


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
    margins: dict  # per gate, value / (tol * scale); above 1 fails

    def as_dict(self):
        return asdict(self)


def recovery_parts(p, v, i_s, omega0):
    """Rotor-frame parts (a, b) of the excitation demand: seen from a rotor
    at angle theta, the voltage the excitation winding must induce, turned
    back a quarter turn, is e^{-j theta} a + e^{j theta} b, an
    origin-centered ellipse as the angle sweeps. ``v`` and ``i_s`` are
    complex; ``p`` holds scalars or, from :func:`machine.stack_params`,
    arrays, and everything broadcasts."""
    a = -1j * (v - (p.r_s + 1j * omega0 * p.l_s) * i_s)
    b = -omega0 * p.l_sa * np.conj(i_s)
    return a, b


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
    a, b = recovery_parts(p, v, i_s, omega0)
    if omega0 == 0.0:
        # The frequency is shared, so this branch holds for every machine.
        # Here a = -j (v - r_s i_s) and b = 0.
        infeasible = np.abs(a) > RECOVERY_TOL * np.maximum(1.0, np.abs(v))
        if infeasible.any():
            k = int(np.argmax(infeasible))
            raise InfeasibleSteadyStateError(
                f"machine {k + 1}: no steady state at zero frequency: the net "
                f"stator voltage |v - r_s i_s| = {abs(a[k]):.3e} is nonzero "
                "(any rotor angle and excitation current would leave it "
                "unbalanced)")
        theta, i_f = np.zeros((2, len(v)))
        degenerate = np.ones(len(v), dtype=bool)
        cases = ["omega_zero"] * len(v)
    else:
        # The quadrature part Im(e^{-j theta} a + e^{j theta} b) is linear
        # in (cos, sin) of the angle; its zero is defined unless
        # a = conj(b), equal radii included. Near-equal radii, where the
        # ellipse may collapse through the origin, are only flagged.
        ra, rb = np.abs(a), np.abs(b)
        alpha_equal = np.abs(ra - rb) <= DEGENERACY_BAND * (ra + rb)
        theta = np.arctan2(-(a.imag + b.imag), b.real - a.real)
        z = np.exp(1j * theta)
        i_f = (np.conj(z) * a + z * b).real / (omega0 * p.l_sf)
        nu_zero = np.abs(a + z * z * b) <= DEGENERACY_BAND * np.abs(v)
        # The two solutions are antipodal: advancing the angle by pi flips
        # the excitation current's sign. The polarization fixes the sign of
        # omega0 * l_sf * i_f, at positive frequency that of i_f itself.
        flip = ~nu_zero & (sigma * omega0 * p.l_sf * i_f < 0.0)
        # A round rotor (b = 0) with no demand balances at every angle and
        # draws no torque; report theta = 0, not the angle rounding picked.
        theta = np.where(nu_zero & (b == 0.0), 0.0, theta + np.pi * flip)
        i_f = np.where(nu_zero, 0.0, np.where(flip, -i_f, i_f))
        cases = ["nu_zero" if nz else "alpha_equal" if ae else "regular"
                 for nz, ae in zip(nu_zero.tolist(), alpha_equal.tolist())]
        degenerate = nu_zero

    z = np.exp(1j * theta)
    nu = 1j * (a + z * z * b)
    nu_norm = np.abs(nu)
    gauge = np.maximum(1.0, nu_norm)
    exc_res = np.abs(omega0 * p.l_sf * i_f - sigma * nu_norm) / gauge
    ali_res = np.abs(1j * z * nu_norm - sigma * nu) / gauge
    bad = ~degenerate & (np.maximum(exc_res, ali_res) > RECOVERY_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise SolverError(
            f"machine {k + 1}: machine recovery inconsistent: excitation "
            f"residual {exc_res[k]:.3e}, alignment residual {ali_res[k]:.3e} "
            f"exceed {RECOVERY_TOL:.1e}")
    for k in np.flatnonzero(degenerate).tolist():
        log.warning("machine %d: recovery hit degenerate case %r; this does "
                    "not define a sensible operating point", k + 1, cases[k])
    # Degenerate machines have i_f = 0: nothing is left to balance.
    exc_res[degenerate] = ali_res[degenerate] = 0.0

    # The torque (L0 i_r) . (J i_r) at i_r = (e^{-j theta} i_s, i_f, 0, 0).
    i_r = np.conj(z) * i_s
    tau_m = p.d * omega0 - i_r.imag * (2.0 * p.l_sa * i_r.real + p.l_sf * i_f)
    return MachineRecovery(
        theta=theta, i_f=i_f, tau_m=tau_m, v_f=p.r_f * i_f,
        nu=nu.view(float).reshape(-1, 2), sigma=sigma.astype(int), case=cases,
        excitation_residual=exc_res, alignment_residual=ali_res)


def solve_network(sys, spec):
    """Solve the nodal current balance with machine-bus voltages pinned.

    Newton iteration on the load-bus voltage pairs (Newton power flow,
    Tinney & Walker, Proc. IEEE 1967). The balance is one product of the
    complex nodal admittance with the complex voltages. A load of exponent
    k draws i = y |v|^-k v, whose derivative on the pair is the real form
    of y |v|^-k minus k i v^T / |v|^2: the Jacobian is the real form of
    the admittance's load-bus block minus one rank-one 2x2 block per
    loaded bus. Only the diagonals depend on v, so both matrices are built
    once per solve and each iteration rewrites their diagonals. The
    machine-bus rows of the converged balance are the stator currents; the
    line currents follow from the branch impedances. For impedance-only
    loads the balance is affine, and the first step lands on the solution.
    """
    n_g, n_l = sys.n_g, sys.n_l
    opts, omega0, bank = spec.newton, spec.omega0, sys.load_bank
    if bank.custom:
        raise SolverError(
            "network solve handles the shipped load types only; custom loads "
            f"at bus(es) {[sys.bus_ids[k] for k, _ in bank.custom]!r}")

    v = np.zeros(2 * sys.n_v)
    v[:2 * n_g] = spec.gen_voltages()
    v[2 * n_g::2] = float(np.mean(spec.gen_voltage_mag))

    vc = as_complex(v)  # a view: the Newton updates of v show through
    v_l = v[2 * n_g:].reshape(-1, 2)
    lines = line_admittance(sys.network, omega0)
    # The workspace: Y and the Jacobian off their diagonals, and the flat
    # positions of the Jacobian's diagonal 2x2 blocks.
    Y = lines.copy()
    jac = real_blocks(lines[n_g:, n_g:])
    diag_blocks = (np.arange(n_l)[:, None, None] * (4 * n_l + 2)
                   + [[0, 1], [2 * n_l, 2 * n_l + 1]])
    k = bank.k[n_g:]  # only k > 0 loads have a floor that keeps |v| > 0
    history = []
    for iterations in range(1, opts.max_iter + 1):
        try:
            y_load = bank.admittance(vc)
        except LoadDomainError as err:
            raise SolverError(
                f"network solve left a load's domain at iteration "
                f"{iterations}: {err}"
            ) from err
        admittance(sys.network, y_load, omega0, lines, out=Y)
        balance = (Y @ vc).view(float)
        res = float(abs(balance[2 * n_g:]).max(initial=0.0))
        history.append(res)
        log.debug("newton iter %d: residual %.3e", iterations, res)
        if not math.isfinite(res):
            raise SolverError(f"network solve hit a non-finite residual "
                              f"({res}) at iteration {iterations}")
        if res <= opts.tol * max(1.0, float(abs(v).max())):
            break
        i_l = (y_load[n_g:] * vc[n_g:]).view(float).reshape(-1, 2)
        w = np.divide(k, (v_l ** 2).sum(axis=1), out=np.zeros(n_l),
                      where=k > 0)
        blocks = real_blocks(Y.diagonal()[n_g:, None]).reshape(-1, 2, 2)
        blocks -= w[:, None, None] * i_l[:, :, None] * v_l[:, None, :]
        jac.put(diag_blocks, blocks)
        try:
            v[2 * n_g:] -= np.linalg.solve(jac, balance[2 * n_g:])
        except np.linalg.LinAlgError as err:
            raise SolverError(
                f"singular Jacobian in network solve at iteration {iterations}"
            ) from err
    else:
        raise SolverError(
            f"network solve did not converge in {opts.max_iter} iterations; "
            f"final residual {history[-1]:.3e}"
        )

    i_s = -balance[:2 * n_g]
    drops = vc[sys.network.heads] - vc[sys.network.tails]
    i_T = solve_branch_currents(sys.network, omega0, drops.view(float))
    return NetworkSolution(i_s=i_s, v=v, i_T=i_T, iterations=iterations,
                           residual_history=history)


def recover_all(sys, spec, net):
    """Recovery of all machines behind a network solution, in one pass."""
    return _recover(sys.params, as_complex(net.v[:2 * sys.n_g]),
                    as_complex(net.i_s), spec.omega0, spec.sigma)


def _residual_gate(sys, x, u, omega0):
    """The residual at (x, u), its block norms, |rho|_inf and the tolerance
    scale. The blocks partition the state; a NaN block makes |rho|_inf NaN."""
    rho = residual(sys, x, u, omega0)
    blocks = residual_block_norms(sys, rho)
    rho_inf = max(blocks.values(), key=lambda b: b if b == b else math.inf)
    return rho, blocks, rho_inf, tolerance_scale(x, u)


def assemble_steady_state(sys, net, recovery, omega0):
    """Stack a network solution and the machine recovery into a full state
    and input, and verify the full-system residual meets the tolerance."""
    i = np.zeros((sys.n_g, 5))  # the damper currents stay zero
    i[:, :2] = net.i_s.reshape(-1, 2)
    i[:, 2] = recovery.i_f
    x = sys.layout.pack(recovery.theta, omega0, i, net.v, net.i_T)
    u = sys.layout.pack_input(recovery.tau_m, recovery.v_f)
    _, blocks, rho_inf, scale = _residual_gate(sys, x, u, omega0)
    if not rho_inf <= CERT_RESIDUAL_TOL * scale:
        detail = ", ".join(f"{k}={val:.3e}" for k, val in blocks.items())
        raise SolverError(
            f"assembled steady state fails verification: |residual|_inf = "
            f"{rho_inf:.3e} > {CERT_RESIDUAL_TOL:.1e} * scale ({scale:.3e}); "
            f"blocks: {detail}"
        )
    return FullSteadyState(x=x, u=u, omega0=omega0, recovery=recovery,
                           network=net)


def compute_steady_state(sys, spec):
    """Full pipeline: network solve, machine recovery, assembly."""
    net = solve_network(sys, spec)
    recovery = recover_all(sys, spec, net)
    return assemble_steady_state(sys, net, recovery, spec.omega0)


def verify_steady_state(sys, ss):
    """Numeric certificate that (x, u) is a synchronous steady state.

    Three gates: the full-system residual vanishes (machine and network
    balance at frequency omega0), the residual is constant along the
    rotating flow (its exact derivative along the steady field, from the
    same residual, see :func:`invariance_defect`), and every load commutes
    with rotations: the shipped ones, y |v|^-k v, by construction, custom
    ones by the rotation probe. Thresholds are relative to the state/input
    scale; ``margins`` holds each gate's value over its threshold.
    """
    rho, blocks, rho_inf, scale = _residual_gate(sys, ss.x, ss.u, ss.omega0)
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
    if not margins["invariance"] <= 1.0:
        failures.append(
            f"invariance defect {inv:.3e} exceeds "
            f"{CERT_INVARIANCE_TOL:.1e}*scale; the residual drifts along the "
            "rotating flow (non-constant inputs or non-conforming load)")
    bad_loads = [sys.bus_ids[k] for k, d in enumerate(equiv)
                 if not d <= CERT_EQUIVARIANCE_TOL]
    if bad_loads:
        failures.append(
            f"load model at bus(es) {bad_loads!r} is not rotation-equivariant")
    return VerificationReport(
        residual_blocks=blocks, residual_inf=rho_inf, scale=scale,
        invariance_defect=inv, equivariance_defects=equiv,
        certificate=not failures, failures=failures, tolerances=tol,
        margins=margins)
