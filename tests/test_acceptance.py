"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at run time.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from gridstate.cli import main
from gridstate.frame import ROT90
from gridstate.identities import random_valid_params, run_identity_suite
from gridstate.simulate import (SimConfig, drift_metrics,
                                reference_trajectory, simulate)
from gridstate.steady_state import (OperatingSpec, compute_steady_state,
                                    solve_network, verify_steady_state)
from gridstate.system import tolerance_scale, total_energy, vector_field

from conftest import AnisotropicLoad
from oracles import excitation_demand, recover_one, rk4_step_fn, rot

OMEGA0 = 2 * np.pi * 50
TEN_PERIODS = 0.2
DT = 1e-5


def report(n, text):
    print(f"ACCEPTANCE CRITERION {n}: PASS - {text}")


def test_criterion_1_end_to_end_certification(tmp_path, fixture_path):
    out = tmp_path / "result.json"
    t0 = time.perf_counter()
    code = main(["steady-state", str(fixture_path), "-o", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out.read_text())
    diag = doc["diagnostics"]
    assert diag["certificate"] is True
    assert diag["residual_inf"] <= 1e-9 * diag["scale"]
    assert elapsed < 1.0
    report(1, f"certified, |rho|_inf={diag['residual_inf']:.2e} <= "
              f"1e-9*scale, runtime {elapsed:.3f}s < 1s")


def test_criterion_2_dynamic_invariance(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    assert ss.omega0 == pytest.approx(OMEGA0)
    t0 = time.perf_counter()
    traj = simulate(sys_, ss.x, ss.u,
                    SimConfig(dt=DT, t_end=TEN_PERIODS, record_every=20))
    metrics = drift_metrics(sys_, traj, ss.x, ss.omega0)
    elapsed = time.perf_counter() - t0
    assert metrics.state_deviation <= 1e-6
    assert metrics.voltage_magnitude_deviation <= 1e-6
    assert metrics.frequency_deviation <= 1e-6 * OMEGA0
    assert elapsed < 30.0
    report(2, f"10 periods at dt=1e-5: state dev {metrics.state_deviation:.2e}"
              f", vmag dev {metrics.voltage_magnitude_deviation:.2e}, "
              f"freq dev {metrics.frequency_deviation:.2e} rad/s, "
              f"runtime {elapsed:.1f}s < 30s")


def test_criterion_3_necessity(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    scale = tolerance_scale(ss.x, ss.u)

    # (a) one percent sinusoidal modulation of the inputs
    x = ss.x.copy()
    worst_a = 0.0
    n_steps = int(round(TEN_PERIODS / DT))
    for step in range(n_steps):
        u_t = ss.u * (1.0 + 0.01 * np.sin(step * DT))
        x = rk4_step_fn(lambda y: vector_field(sys_, y, u_t), x, DT)
        if (step + 1) % 200 == 0:
            ref = reference_trajectory(sys_, ss.x, ss.omega0, (step + 1) * DT)
            worst_a = max(worst_a, float(np.max(np.abs(x - ref))) / scale)
    assert worst_a >= 1e-3

    # (b) anisotropic (non-rotation-equivariant) load model
    bad_sys = sys_.with_loads([sys_.loads[0], sys_.loads[1],
                               AnisotropicLoad()])
    traj = simulate(bad_sys, ss.x, ss.u,
                    SimConfig(dt=DT, t_end=TEN_PERIODS, record_every=100))
    metrics = drift_metrics(bad_sys, traj, ss.x, ss.omega0)
    assert metrics.state_deviation >= 1e-3
    report(3, f"modulated input deviates {worst_a:.2e} >= 1e-3; anisotropic "
              f"load deviates {metrics.state_deviation:.2e} >= 1e-3")


def test_criterion_4_two_solution_property(three_bus):
    sys_, spec = three_bus
    states = {}
    for s0 in (1, -1):
        for s1 in (1, -1):
            flipped = OperatingSpec(
                omega0=spec.omega0, gen_voltage_mag=spec.gen_voltage_mag,
                gen_voltage_angle=spec.gen_voltage_angle,
                sigma=np.array([s0, s1]), newton=spec.newton)
            ss = compute_steady_state(sys_, flipped)
            rep = verify_steady_state(sys_, ss)
            assert rep.certificate, rep.failures
            assert rep.residual_inf <= 1e-9 * rep.scale
            states[(s0, s1)] = ss
    base = states[(1, 1)]
    for k, key in enumerate([(-1, 1), (1, -1)]):
        other = states[key]
        dtheta = (other.recovery.theta[k] - base.recovery.theta[k]) \
            % (2 * np.pi)
        assert dtheta == pytest.approx(np.pi, abs=1e-9)
        assert other.recovery.i_f[k] == pytest.approx(
            -base.recovery.i_f[k], rel=1e-9)
    report(4, "all four polarization choices certify; angles shift by pi "
              "and excitation currents flip sign to 1e-9")


def test_criterion_5_recovery_equation_residuals():
    rng = np.random.default_rng(2024)
    grid = np.linspace(-np.pi, np.pi, 3600, endpoint=False)
    step = grid[1] - grid[0]
    worst_eq = 0.0
    for trial in range(100):
        p = random_valid_params(rng)
        if trial % 2 == 0:
            p = replace(p, l_sa=0.0)  # round rotor half the time
        v = rng.uniform(-3, 3, 2)
        i_s = rng.uniform(-3, 3, 2)
        omega0 = rng.uniform(10, 400)
        gauge = max(1.0, float(np.linalg.norm(v)))

        roots = []
        for sigma in (1, -1):
            rec = recover_one(p, v, i_s, omega0, sigma)
            nu = excitation_demand(p, v, i_s, omega0, rec.theta)
            lhs = omega0 * p.l_sf * rec.i_f
            worst_eq = max(
                worst_eq,
                abs(lhs - sigma * np.linalg.norm(nu)) / gauge,
                float(np.linalg.norm(
                    ROT90 @ rot(rec.theta)[:, 0] * np.linalg.norm(nu)
                    - sigma * nu)) / gauge,
                float(np.linalg.norm(
                    lhs * (ROT90 @ rot(rec.theta)[:, 0]) - nu)) / gauge)
            roots.append(rec.theta)

        # Brute-force scan: the closed-form roots bracket the grid minima of
        # the stator-balance residual over the angle.
        # |(rot(th).T @ ROT90.T @ nu(th))[1]| at every grid angle at once.
        w = excitation_demand(p, v, i_s, omega0, grid) @ ROT90
        f = np.abs(np.cos(grid) * w[:, 1] - np.sin(grid) * w[:, 0])
        if np.max(f) > 1e-6 * gauge:
            for idx in range(3600):
                if not (f[idx] < f[idx - 1] and f[idx] <= f[(idx + 1) % 3600]
                        and f[idx] < 0.1 * np.max(f)):
                    continue
                dist = min(abs((grid[idx] - r + np.pi) % (2 * np.pi) - np.pi)
                           for r in roots)
                assert dist <= 1.5 * step
    assert worst_eq <= 1e-9
    report(5, f"recovery equations hold to {worst_eq:.2e} <= 1e-9 over 100 "
              "instances; 3600-point scans confirm the closed-form angles")


def test_criterion_6_proof_identity_suite(three_bus):
    sys_, _ = three_bus
    rows = run_identity_suite(sys_, n_samples=120, seed=0)
    for row in rows:
        assert row.passed, f"{row.name}: {row.max_defect:.3e}"
    names = {row.name for row in rows}
    assert len(names) == 7
    report(6, "all 7 identities pass at stated tolerances over 120 seeded "
              "instances")


def test_criterion_7_complex_phasor_oracle(three_bus):
    from test_steady_state import complex_phasor_solve
    sys_, spec = three_bus
    sol = solve_network(sys_, spec)
    v_c, i_s_c, _ = complex_phasor_solve(sys_, spec)
    v_solver = sol.v[0::2] + 1j * sol.v[1::2]
    i_solver = sol.i_s[0::2] + 1j * sol.i_s[1::2]
    v_err = np.max(np.abs(v_solver - v_c)) / np.max(np.abs(v_c))
    i_err = np.max(np.abs(i_solver - i_s_c)) / np.max(np.abs(i_s_c))
    assert v_err <= 1e-9
    assert i_err <= 1e-9
    report(7, f"complex-phasor oracle agrees: v rel err {v_err:.2e}, "
              f"i_s rel err {i_err:.2e} <= 1e-9")


def test_criterion_8_integrator_order():
    def period_error(dt):
        x = np.array([1.0, 0.0])
        n = int(round(2 * np.pi / (OMEGA0 * dt)))
        for _ in range(n):
            x = rk4_step_fn(lambda y: OMEGA0 * (ROT90 @ y), x, dt)
        return np.linalg.norm(x - rot(OMEGA0 * n * dt) @ np.array([1.0, 0.0]))

    ratio = period_error(2e-5) / period_error(1e-5)
    assert 14.0 <= ratio <= 18.0
    report(8, f"halving dt shrinks the rotation-test error by {ratio:.2f}x "
              "(within 16 +/- 2)")


def test_criterion_9_energy_monotone(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    u0 = np.zeros_like(ss.u)
    traj = simulate(sys_, ss.x, u0,
                    SimConfig(dt=DT, t_end=0.05, record_every=10))
    energies = np.array([total_energy(sys_, x) for x in traj.states])
    tol = 1e-9 * tolerance_scale(ss.x, u0)
    worst_rise = float(np.max(np.diff(energies)))
    assert worst_rise <= tol
    report(9, f"stored energy non-increasing under zero input: worst step "
              f"rise {worst_rise:.2e} <= {tol:.1e}")
