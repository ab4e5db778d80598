"""Numeric identity suite behind the steady-state theory.

Each identity is an exact structural equation on a running operator, a
comparison of two assemblies of the same matrix, or a finite-difference
check along a flow.
The machine rows hold the code that integrates and certifies to the paper's
model: the Park row compares the direct L(theta) with the T L0 T^T turn the
system runs, and the power row balances the energy the model stores against
the power its inputs supply and its resistances, damping and loads take. The
suite is seeded, so failures reproduce exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import system
from .frame import MACHINE_ROT90, rotate_pairs
from .loads import Load
from .machine import (MachineParams, inductance_matrix, stack_params,
                      stator_frame_inductance, validate_params)
from .system import residual, steady_field, total_energy, vector_field

FD_STEP = 1e-6
FD_TOL = 1e-6
EXACT_TOL = 1e-14
ROUNDING_TOL = 1e-10


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


def _park_defect(sys, rng, n_samples):
    """Largest relative max-norm gap between L(theta) assembled directly and
    T(theta) L0 T(theta)^T, the turn :meth:`PowerSystem.inductance_stack`
    runs, over draws that alternate the system's own machines with fresh
    parameter sets, all in one stacked pass."""
    draws = stack_params([sys.machines[(idx // 2) % sys.n_g] if idx % 2 == 0
                          else random_valid_params(rng)
                          for idx in range(n_samples)])
    theta = rng.uniform(-np.pi, np.pi, n_samples)
    L = inductance_matrix(draws, theta)
    gap = stator_frame_inductance(draws.rotor_frame_inductance(), theta) - L
    return float((abs(gap).max((1, 2))
                  / np.maximum(1.0, abs(L).max((1, 2)))).max())


def _power_flows(sys, x, u):
    """Power the inputs supply, sum omega tau_m + v_f i_f, and power lost,
    sum i^T R i + d omega^2 + r_T |i_T|^2 + v . i_load, at state x: along
    the vector field the stored energy changes by their difference."""
    lay = sys.layout
    _, omega, i_flat, v, i_T = lay.split(x)
    tau_m, v_f = lay.split_input(u)
    i = i_flat.reshape(sys.n_g, 5)
    supplied = omega @ tau_m + v_f @ i[:, 2]
    lost = (np.sum(sys.params.resistance_diag() * i**2)
            + sys.params.d @ omega**2 + sys._r_T2 @ i_T**2
            + v @ sys.load_currents(v))
    return float(supplied), float(lost)


def _bus_selector_defect(bare, x, turned):
    """Max-norm gap between the bus currents of ``bare`` (no loads, zero
    line currents: only the machines inject) at the stator pairs and
    voltages of state x turned by J, ``turned``, and those currents turned
    by J."""
    lay = bare.layout
    zero = np.zeros(2 * bare.n_t)
    at = [system._bus_currents(bare, y[lay.sl_i].reshape(bare.n_g, 5),
                               y[lay.sl_v], zero) for y in (x, turned)]
    return float(abs(at[1] - rotate_pairs(at[0])).max())


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

    park = _park_defect(sys, rng, n_samples)

    # Structural rows, exact since J only negates and swaps entries: J,
    # turning only the stator pair, annihilates the residual's v_f column
    # (``system._V_F``). The bus selector row is read at the sampled states,
    # and so are the field's fused rows on the pairs and the residual's bus
    # and line rows, all the unloaded system's (``bare``; the residual's on
    # the bus and line pairs alone): turning a state turns them, every pair
    # coupling being a multiple of the identity. With impedance-load blocks
    # the turned rows would sum in another order and read rounding.
    excitation = float(abs(MACHINE_ROT90 @ sys._residual_op[
        :, system._WINDINGS, system._V_F, None]).max())
    bare = sys.with_loads([Load.none()] * sys.n_v)

    # Defining equation of the residual: mass matrix times the gap between
    # the steady-state and model vector fields, the mass matrix applied
    # block by block (L(theta) on each machine's windings). The identity
    # behind the reported invariance defect: along the steady field f the
    # residual turns with every stator, bus and line pair, D rho[f] =
    # omega0 G rho (G: J on those pairs, zero elsewhere; StateLayout.rotate).
    # And the power balance of the model field F: D E[F] = supplied - lost.
    worst_res = worst_flow = worst_power = selector = incidence = 0.0
    h, lay = FD_STEP, sys.layout
    cols, values, starts = bare.field_rows
    mass = np.concatenate((np.ones(sys.n_g), sys.params.m,
                           np.ones(5 * sys.n_g), sys._c2, sys._l_T2))
    network = np.arange(sys.n_x) >= lay.sl_v.start
    for _ in range(max(10, n_samples // 10)):
        x, u, omega0 = _random_state(sys, rng)
        turned = lay.rotate(x)
        selector = max(selector, _bus_selector_defect(bare, x, turned))
        pairs = [np.concatenate((
            np.add.reduceat(y[cols] * values, starts)[lay.pair_rows],
            residual(bare, y * network, u, omega0)[network]))
            for y in (x, turned)]
        incidence = max(incidence,
                        float(abs(pairs[1] - rotate_pairs(pairs[0])).max()))
        rho = residual(sys, x, u, omega0)
        f = steady_field(sys, x, omega0)
        F = vector_field(sys, x, u)
        gap = f - F
        alt = mass * gap
        alt[lay.sl_i] = (sys.inductance_stack(x[lay.sl_theta])
                         @ gap[lay.sl_i].reshape(sys.n_g, 5, 1)).ravel()
        gauge = max(1.0, float(np.max(np.abs(rho))))
        worst_res = max(worst_res, float(np.max(np.abs(rho - alt))) / gauge)
        d_rho = (residual(sys, x + h * f, u, omega0)
                 - residual(sys, x - h * f, u, omega0)) / (2.0 * h)
        g_rho = omega0 * lay.rotate(rho)
        gauge = max(1.0, float(np.max(np.abs(d_rho))))
        worst_flow = max(worst_flow,
                         float(np.max(np.abs(d_rho - g_rho))) / gauge)
        d_energy = (total_energy(sys, x + h * F)
                    - total_energy(sys, x - h * F)) / (2.0 * h)
        supplied, lost = _power_flows(sys, x, u)
        gauge = max(1.0, abs(d_energy), abs(supplied), abs(lost))
        worst_power = max(worst_power,
                          abs(d_energy - supplied + lost) / gauge)
    return [IdentityCheck(name, defect, tol, defect <= tol)
            for name, defect, tol in (
                ("inductance factors as T L0 T^T", park, ROUNDING_TOL),
                ("power balance along the field", worst_power, FD_TOL),
                ("bus selector commutes with rotations", selector,
                 EXACT_TOL),
                ("incidence commutes with rotations", incidence, EXACT_TOL),
                ("rotation annihilates excitation injection", excitation,
                 EXACT_TOL),
                ("residual equals mass-matrix field gap", worst_res,
                 ROUNDING_TOL),
                ("residual rotates along flow", worst_flow, FD_TOL))]
