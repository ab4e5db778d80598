from dataclasses import fields, replace

import numpy as np
import pytest

from gridstate.identities import random_valid_params
from gridstate.machine import (MachineParams, inductance_matrix, stack_params,
                               validate_params)

from conftest import sample_machine
from oracles import (MachineState, electrical_torque, grid_min_eigenvalue,
                     induced_voltage, induced_voltage_flow_derivative_defect,
                     machine_rhs, rot, scalar_validate_params,
                     torque_flow_derivative_defect)


def reference_inductance(p, theta):
    """Independent assembly of the 5x5 inductance from frame primitives."""
    L = np.zeros((5, 5))
    L[:2, :2] = p.l_s * np.eye(2) + rot(2 * theta) @ np.diag([p.l_sa, -p.l_sa])
    coupling = np.array([[p.l_sf, p.l_sd, 0.0], [0.0, 0.0, -p.l_sq]])
    L[:2, 2:] = rot(theta) @ coupling
    L[2:, :2] = L[:2, 2:].T
    L[2:, 2:] = np.array([[p.l_f, p.l_fd, 0.0],
                          [p.l_fd, p.l_d, 0.0],
                          [0.0, 0.0, p.l_q]])
    return L


def test_zero_saliency_makes_stator_inductance_isotropic():
    p = sample_machine(salient=False)
    for theta in (0.0, 0.3, -2.0, 5.7):
        np.testing.assert_allclose(inductance_matrix(p, theta)[:2, :2],
                                   p.l_s * np.eye(2), atol=1e-18)


def test_mutual_inductance_at_zero_angle():
    p = MachineParams(m=1, d=1, r_s=1, r_f=1, r_d=1, r_q=1, l_s=1, l_sa=0,
                      l_f=1, l_d=1, l_q=1, l_fd=0.1,
                      l_sf=1.0, l_sd=0.5, l_sq=0.4)
    np.testing.assert_allclose(inductance_matrix(p, 0.0)[:2, 2:],
                               [[1.0, 0.5, 0.0], [0.0, 0.0, -0.4]],
                               atol=1e-15)


def test_inductance_symmetric_and_matches_reference():
    rng = np.random.default_rng(10)
    draws = [random_valid_params(rng) for _ in range(20)]
    angles = rng.uniform(-np.pi, np.pi, 20)
    for p, theta in zip(draws, angles):
        L = inductance_matrix(p, theta)
        np.testing.assert_allclose(L, L.T, atol=1e-14)
        np.testing.assert_allclose(L, reference_inductance(p, theta),
                                   atol=1e-14)
    # Stacked constants and angles give each machine's own matrix.
    assert inductance_matrix(stack_params(draws), angles).tobytes() == \
        np.array([inductance_matrix(p, t) for p, t in zip(draws, angles)]
                 ).tobytes()


@pytest.mark.parametrize("salient", [True, False])
def test_inductance_positive_definite_on_grid(salient):
    p = sample_machine(salient)
    for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        eigs = np.linalg.eigvalsh(inductance_matrix(p, theta))
        assert eigs[0] > 0.0


def test_torque_zero_current():
    assert electrical_torque(sample_machine(), 0.73, np.zeros(5)) == 0.0


def test_torque_frozen_value():
    # Hand-evaluated: l_sa=0, l_s=1, l_sf=1, theta=0, i=(0,1,1,0,0).
    p = MachineParams(m=1, d=1, r_s=1, r_f=1, r_d=1, r_q=1, l_s=1, l_sa=0,
                      l_f=1, l_d=1, l_q=1, l_fd=0.1,
                      l_sf=1.0, l_sd=0.5, l_sq=0.4)
    i = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    assert electrical_torque(p, 0.0, i) == pytest.approx(-1.0, abs=1e-15)


def test_torque_periodic_in_angle():
    rng = np.random.default_rng(11)
    p = sample_machine()
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        i = rng.uniform(-3, 3, 5)
        assert electrical_torque(p, theta, i) == pytest.approx(
            electrical_torque(p, theta + 2 * np.pi, i), rel=1e-12, abs=1e-12)


def test_induced_voltage_zero_speed_and_homogeneous_in_speed():
    rng = np.random.default_rng(12)
    p = sample_machine()
    theta = 0.4
    i = rng.uniform(-2, 2, 5)
    np.testing.assert_array_equal(induced_voltage(p, theta, 0.0, i),
                                  np.zeros(5))
    np.testing.assert_allclose(induced_voltage(p, theta, 2.0 * 37.0, i),
                               2.0 * induced_voltage(p, theta, 37.0, i),
                               atol=1e-12)


def test_machine_rhs_at_rest_is_zero():
    p = sample_machine()
    s = MachineState(theta=0.2, omega=0.0, i_s=np.zeros(2), i_f=0.0,
                     i_d=0.0, i_q=0.0)
    rhs = machine_rhs(p, s, np.zeros(2), 0.0, 0.0)
    np.testing.assert_array_equal(rhs, np.zeros(7))


def test_machine_rhs_acceleration_recomputed_by_hand():
    rng = np.random.default_rng(14)
    p = sample_machine()
    s = MachineState(theta=rng.uniform(-3, 3), omega=rng.uniform(-50, 50),
                     i_s=rng.uniform(-2, 2, 2), i_f=rng.uniform(-2, 2),
                     i_d=rng.uniform(-2, 2), i_q=rng.uniform(-2, 2))
    tau_m, v_f = 1.7, 0.3
    rhs = machine_rhs(p, s, np.array([1.0, -0.5]), tau_m, v_f)
    assert rhs[0] == s.omega
    tau_e = electrical_torque(p, s.theta, s.currents())
    assert rhs[1] == pytest.approx((tau_m - p.d * s.omega - tau_e) / p.m,
                                   rel=1e-12)


def test_machine_rhs_consistent_with_flux_balance():
    # Substituting di/dt back into the winding equations reproduces the
    # applied voltages to high relative accuracy.
    rng = np.random.default_rng(15)
    for _ in range(20):
        p = random_valid_params(rng)
        s = MachineState(theta=rng.uniform(-3, 3), omega=rng.uniform(-50, 50),
                         i_s=rng.uniform(-2, 2, 2), i_f=rng.uniform(-2, 2),
                         i_d=rng.uniform(-2, 2), i_q=rng.uniform(-2, 2))
        v_term = rng.uniform(-5, 5, 2)
        v_f = rng.uniform(-2, 2)
        rhs = machine_rhs(p, s, v_term, 0.9, v_f)
        i = s.currents()
        L = inductance_matrix(p, s.theta)
        lhs = L @ rhs[2:]
        target = (-p.resistance_diag() * i
                  + np.array([v_term[0], v_term[1], v_f, 0.0, 0.0])
                  - induced_voltage(p, s.theta, s.omega, i))
        scale = max(1.0, np.max(np.abs(target)))
        np.testing.assert_allclose(lhs, target, atol=1e-10 * scale)


def test_validate_params_accepts_good_sets():
    assert validate_params(sample_machine(True)) is None
    assert validate_params(sample_machine(False)) is None


def test_validate_params_flags_saliency_equal_to_stator():
    violation = validate_params(replace(sample_machine(), l_sa=6e-3))
    assert violation is not None
    assert violation.kind == "positive_definite"
    assert violation.theta is not None
    assert violation.eigenvalue is not None and violation.eigenvalue <= 1e-12


def test_rotor_frame_inductance_is_inductance_at_zero_angle():
    # L0 is assembled without rotations; it must be L(0) bit for bit.
    rng = np.random.default_rng(21)
    draws = [random_valid_params(rng) for _ in range(100)]
    for p in [sample_machine(True), sample_machine(False)] + draws:
        L0 = p.rotor_frame_inductance()
        assert L0.tobytes() == inductance_matrix(p, 0.0).tobytes()


def test_stacked_constants_give_each_machines_matrices():
    # PowerSystem builds its L0 and resistance stacks from stack_params in
    # one pass; row k must be machine k's own, bit for bit.
    rng = np.random.default_rng(22)
    machines = [sample_machine(True), sample_machine(False)] + \
        [random_valid_params(rng) for _ in range(30)]
    stack = stack_params(machines)
    assert stack.l_sq.shape == (32,)
    assert stack.rotor_frame_inductance().tobytes() == np.array(
        [inductance_matrix(p, 0.0) for p in machines]).tobytes()
    assert stack.resistance_diag().tobytes() == np.array(
        [[p.r_s, p.r_s, p.r_f, p.r_d, p.r_q] for p in machines]).tobytes()


def test_validate_params_agrees_with_angle_grid():
    # l_sf scaled across the positive-definiteness boundary: the one
    # Cholesky of L0 must reach the verdict of the 64-angle eigenvalue grid.
    rng = np.random.default_rng(18)
    verdicts = set()
    for _ in range(200):
        p = random_valid_params(rng)
        p = replace(p, l_sf=p.l_sf * rng.uniform(1.0, 5.0))
        lam = grid_min_eigenvalue(p)
        violation = validate_params(p)
        verdicts.add(violation is None)
        assert (violation is None) == (lam > 0.0)
        if violation is not None:
            assert violation.kind == "positive_definite"
            assert violation.theta == 0.0
            assert violation.eigenvalue == pytest.approx(lam, rel=1e-9,
                                                         abs=1e-14)
    assert verdicts == {True, False}


def test_validate_params_flags_sign_violations():
    p = sample_machine()
    assert validate_params(replace(p, m=0.0)).kind == "sign"
    assert validate_params(replace(p, r_s=-1.0)).kind == "sign"
    # The value reads as given: an int field is not shown as a float.
    for bad in (replace(p, m=-1), replace(p, l_sa=-2)):
        assert validate_params(bad) == scalar_validate_params(bad)
    assert validate_params(replace(p, m=-1)).message == "m must be > 0, got -1"


def test_stacked_validation_matches_one_machine_at_a_time():
    # All machines in one pass, one batched Cholesky, and one machine on
    # its own: the verdict and message of the scalar per-machine check.
    rng = np.random.default_rng(23)
    names = [f.name for f in fields(MachineParams)]
    machines = []
    for k in range(80):
        p = random_valid_params(rng)
        if k % 4 == 1:
            p = replace(p, l_sf=p.l_sf * rng.uniform(1.0, 5.0))
        elif k % 4 == 2:
            p = replace(p, **{str(rng.choice(names)): float(
                rng.choice([0.0, -1.0, np.nan, np.inf]))})
        machines.append(p)
    found = validate_params(stack_params(machines))
    assert found == [scalar_validate_params(p) for p in machines]
    assert [validate_params(p) for p in machines] == found
    assert {v.kind for v in found if v is not None} == \
        {"sign", "positive_definite"}
    good = [p for p, v in zip(machines, found) if v is None]
    assert validate_params(stack_params(good)) == [None] * len(good)


def test_torque_constant_along_rotating_flow():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(120):
        p = random_valid_params(rng)
        theta = rng.uniform(-np.pi, np.pi)
        i = rng.uniform(-3, 3, 5)
        omega0 = rng.uniform(0.5, 400) * rng.choice((-1, 1))
        worst = max(worst, torque_flow_derivative_defect(p, theta, i, omega0))
    assert worst <= 1e-6


def test_induced_voltage_rotates_along_flow():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(120):
        p = random_valid_params(rng)
        theta = rng.uniform(-np.pi, np.pi)
        i = rng.uniform(-3, 3, 5)
        omega0 = rng.uniform(0.5, 400) * rng.choice((-1, 1))
        worst = max(worst, induced_voltage_flow_derivative_defect(
            p, theta, i, omega0))
    assert worst <= 1e-6
