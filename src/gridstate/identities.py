"""Numeric identity suite behind the steady-state theory.

Each identity is either an exact structural matrix equation or a
finite-difference check of a directional-derivative cancellation. The suite
is seeded, so failures reproduce exactly.
"""

from dataclasses import dataclass

import numpy as np

from .frame import MACHINE_ROT90, block_rotation_generator, \
    machine_rotation_generator, rvec
from .machine import MachineParams, electrical_torque, induced_voltage, \
    inductance_matrix, turn_stator, validate_params
from .system import (bus_indicator, field_indicator, mass_matrix, residual,
                     steady_field, vector_field)

FD_STEP = 1e-6
FD_TOL = 1e-6
EXACT_TOL = 1e-14
RESIDUAL_TOL = 1e-10


@dataclass
class IdentityCheck:
    name: str
    max_defect: float
    tolerance: float
    passed: bool


def random_valid_params(rng):
    """Random machine constants with guaranteed positive-definite
    inductances (mutual couplings kept well inside the PD region)."""
    for _ in range(100):
        l_s = rng.uniform(0.5, 2.0)
        l_f = rng.uniform(0.5, 2.0)
        l_d = rng.uniform(0.5, 2.0)
        l_q = rng.uniform(0.5, 2.0)
        p = MachineParams(
            m=rng.uniform(0.1, 2.0), d=rng.uniform(0.05, 1.0),
            r_s=rng.uniform(0.05, 1.0), r_f=rng.uniform(0.05, 1.0),
            r_d=rng.uniform(0.05, 1.0), r_q=rng.uniform(0.05, 1.0),
            l_s=l_s, l_sa=rng.uniform(0.0, 0.25) * l_s,
            l_f=l_f, l_d=l_d, l_q=l_q,
            l_fd=0.25 * np.sqrt(l_f * l_d),
            l_sf=0.3 * np.sqrt(l_s * l_f),
            l_sd=0.2 * np.sqrt(l_s * l_d),
            l_sq=0.2 * np.sqrt(l_s * l_q),
        )
        if validate_params(p) is None:
            return p
    raise RuntimeError("failed to draw valid machine parameters")


def _machine_instances(sys, rng, n_samples):
    """Alternate the system's own machines with freshly drawn parameter sets
    so both the concrete system and the parameter family are exercised."""
    for idx in range(n_samples):
        if idx % 2 == 0:
            p = sys.machines[(idx // 2) % sys.n_g]
        else:
            p = random_valid_params(rng)
        theta = rng.uniform(-np.pi, np.pi)
        i = rng.uniform(-3.0, 3.0, size=5)
        omega0 = rng.uniform(0.5, 400.0) * rng.choice((-1.0, 1.0))
        yield p, theta, i, omega0


def park_factorization_defect(p, theta):
    """Relative max-norm gap between T(theta) L0 T(theta)^T, built with
    :func:`turn_stator`, and L(theta) assembled directly: the rotor-frame
    forms stand for the L(theta) model only through this factorization."""
    z = complex(*rvec(theta))
    L = inductance_matrix(p, theta)
    L0_Tt = turn_stator(p.rotor_frame_inductance(), z)
    gap = turn_stator(L0_Tt.T, z).T - L
    return float(np.max(np.abs(gap))) / max(1.0, float(np.max(np.abs(L))))


def torque_flow_derivative_defect(p, theta, i, omega0, h=FD_STEP):
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


def induced_voltage_flow_derivative_defect(p, theta, i, omega0, h=FD_STEP):
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


def _random_state(sys, rng):
    lay = sys.layout
    omega0 = 2.0 * np.pi * rng.uniform(5.0, 60.0)
    x = lay.pack(
        rng.uniform(-np.pi, np.pi, sys.n_g),
        omega0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, sys.n_g)),
        rng.uniform(-2.0, 2.0, 5 * sys.n_g),
        rng.uniform(-2.0, 2.0, 2 * sys.n_v) + np.tile([3.0, 0.0], sys.n_v),
        rng.uniform(-2.0, 2.0, 2 * sys.n_t),
    )
    u = rng.uniform(-2.0, 2.0, lay.n_u)
    return x, u, omega0


def run_identity_suite(sys, n_samples=120, seed=0):
    """Run all identity checks against a system; returns one row each."""
    rng = np.random.default_rng(seed)
    rows = []

    # The rotor-frame forms obey both flow identities by construction; the
    # L(theta) model does because it factors, checked in both rows.
    worst_torque = 0.0
    worst_vind = 0.0
    for p, theta, i, omega0 in _machine_instances(sys, rng, n_samples):
        park = park_factorization_defect(p, theta)
        worst_torque = max(worst_torque, park,
                           torque_flow_derivative_defect(p, theta, i, omega0))
        worst_vind = max(
            worst_vind, park,
            induced_voltage_flow_derivative_defect(p, theta, i, omega0))
    rows.append(IdentityCheck("torque constant along rotating flow",
                              worst_torque, FD_TOL, worst_torque <= FD_TOL))
    rows.append(IdentityCheck("induced voltage rotates along flow",
                              worst_vind, FD_TOL, worst_vind <= FD_TOL))

    # Structural operator identities (integer-structured, exact).
    n_g, n_v, n_t = sys.n_g, sys.n_v, sys.n_t
    Jg = machine_rotation_generator(n_g)
    Jv = block_rotation_generator(n_v)
    Jt = block_rotation_generator(n_t)
    Iv = bus_indicator(n_g, n_v)
    d1 = float(np.max(np.abs(Iv.T @ Jv - Jg @ Iv.T)))
    rows.append(IdentityCheck("bus selector commutes with rotations",
                              d1, EXACT_TOL, d1 <= EXACT_TOL))
    d2 = float(np.max(np.abs(sys.incidence2 @ Jt - Jv @ sys.incidence2)))
    rows.append(IdentityCheck("incidence commutes with rotations",
                              d2, EXACT_TOL, d2 <= EXACT_TOL))
    d3 = float(np.max(np.abs(Jg @ field_indicator(n_g))))
    rows.append(IdentityCheck("rotation annihilates excitation injection",
                              d3, EXACT_TOL, d3 <= EXACT_TOL))

    # Defining equation of the residual: mass matrix times the gap between
    # the steady-state and model vector fields. And the identity the
    # certificate's invariance gate rests on: along the steady field f the
    # residual turns with every stator, bus and line pair, D rho[f] =
    # omega0 G rho (G: J on those pairs, zero on the angle and speed rows).
    worst_res = worst_flow = 0.0
    h = FD_STEP
    for _ in range(max(10, n_samples // 10)):
        x, u, omega0 = _random_state(sys, rng)
        rho = residual(sys, x, u, omega0)
        f = steady_field(sys, x, omega0)
        alt = mass_matrix(sys, x) @ (f - vector_field(sys, x, u))
        gauge = max(1.0, float(np.max(np.abs(rho))))
        worst_res = max(worst_res, float(np.max(np.abs(rho - alt))) / gauge)
        d_rho = (residual(sys, x + h * f, u, omega0)
                 - residual(sys, x - h * f, u, omega0)) / (2.0 * h)
        g_rho = steady_field(sys, rho, omega0)
        g_rho[sys.layout.sl_theta] = 0.0
        gauge = max(1.0, float(np.max(np.abs(d_rho))))
        worst_flow = max(worst_flow,
                         float(np.max(np.abs(d_rho - g_rho))) / gauge)
    rows.append(IdentityCheck("residual equals mass-matrix field gap",
                              worst_res, RESIDUAL_TOL, worst_res <= RESIDUAL_TOL))
    rows.append(IdentityCheck("residual rotates along flow",
                              worst_flow, FD_TOL, worst_flow <= FD_TOL))
    return rows
