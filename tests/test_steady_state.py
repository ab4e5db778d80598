from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstate import steady_state
from gridstate.errors import InfeasibleSteadyStateError, SolverError
from gridstate.frame import ROT90, as_complex, real_blocks, wrap_angle
from gridstate.identities import random_valid_params
from gridstate.loads import Load
from gridstate.machine import MachineParams
from gridstate.network import (Network, admittance, line_admittance,
                               solve_branch_currents)
from gridstate.steady_state import (NewtonOptions, OperatingSpec,
                                    assemble_steady_state,
                                    compute_steady_state, recover_all,
                                    solve_network, verify_steady_state)
from gridstate.system import assemble, residual, tolerance_scale

from conftest import (AnisotropicLoad, ring_mesh, sample_machine,
                      slow_two_bus)
from oracles import (balance_jacobian, dense_incidence, dense_line_admittance,
                     electrical_torque, excitation_demand, network_residual,
                     nodal_balance_residual, recover_one,
                     reference_solve_network, rvec)

LOAD_KINDS = ("impedance", "current", "power")


def eq_vec_residual(p, v, i_s, omega0, theta, i_f):
    """Independent check of the defining stator balance: the excitation
    current must supply exactly the rotated voltage demand."""
    nu = excitation_demand(p, v, i_s, omega0, theta)
    return np.linalg.norm(omega0 * p.l_sf * i_f * (ROT90 @ rvec(theta)) - nu)


def rotor_frame_second_component(p, v, i_s, omega0, theta):
    """Brute-force path: rotate the voltage demand into the rotor frame and
    read its quadrature component (must vanish at steady-state angles).
    ``theta`` may be an array of angles, giving one component per angle."""
    w = excitation_demand(p, v, i_s, omega0, theta) @ ROT90  # ROT90.T @ nu
    # Second row of rot(theta).T @ w.
    return np.cos(theta) * w[..., 1] - np.sin(theta) * w[..., 0]


# ---------------------------------------------------------------- network


def two_generator_buses(omega0, magnitudes):
    net = Network(heads=[0], tails=[1], c=np.array([1e-3, 1e-3]),
                  r_T=np.array([0.5]), l_T=np.array([1e-2]))
    sys_ = assemble([sample_machine(True), sample_machine(False)], [0, 1], net)
    spec = OperatingSpec(omega0=omega0, gen_voltage_mag=np.array(magnitudes),
                         gen_voltage_angle=np.array([0.0, 0.0]),
                         sigma=np.array([1, 1]))
    return sys_, spec


def test_solve_network_all_generator_buses_zero_frequency():
    # Equal voltages, no loads, omega0 = 0: nothing flows.
    sys_, spec = two_generator_buses(0.0, [2.0, 2.0])
    sol = solve_network(sys_, spec)
    np.testing.assert_allclose(sol.i_T, np.zeros(2), atol=1e-14)
    np.testing.assert_allclose(sol.i_s, np.zeros(4), atol=1e-14)


def test_zero_frequency_infeasible_keeps_its_class():
    # Unequal voltages at omega0 = 0 drive a direct current through the
    # line; the stator resistance cannot absorb the terminal voltage, so no
    # machine has a steady state and the error names the first one.
    sys_, spec = two_generator_buses(0.0, [2.0, 1.0])
    with pytest.raises(InfeasibleSteadyStateError,
                       match=r"^machine 1: no steady state at zero frequency"):
        compute_steady_state(sys_, spec)


def test_solve_network_two_bus_analytic():
    sys_, spec = slow_two_bus(omega0=0.0, g=1.0, b=0.0)
    # Override to the hand-solvable case: r = 1, unit source voltage.
    net = replace(sys_.network, r_T=np.array([1.0]))
    sys_ = assemble(list(sys_.machines), [0], net, loads=list(sys_.loads),
                    bus_ids=list(sys_.bus_ids))
    spec = OperatingSpec(omega0=0.0, gen_voltage_mag=np.array([1.0]),
                         gen_voltage_angle=np.array([0.0]),
                         sigma=np.array([1]))
    sol = solve_network(sys_, spec)
    np.testing.assert_allclose(sol.v[2:], [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(sol.i_s, [-0.5, 0.0], atol=1e-12)


def complex_phasor_solve(sys_, spec):
    """Independent oracle: the planar pairs map to complex numbers, the
    rotation generator to the imaginary unit; for impedance loads the nodal
    equations become one linear complex system."""
    n_g, n_v = sys_.n_g, sys_.n_v
    omega0 = spec.omega0
    shunt = np.zeros(n_v, dtype=complex)
    for k, load in enumerate(sys_.loads):
        g, b = load.coeffs
        assert load.kind in ("none", "impedance")
        shunt[k] = g + 1j * (b + omega0 * sys_.network.c[k])
    Y = np.diag(shunt) + dense_line_admittance(sys_.network, omega0)
    E = dense_incidence(sys_.network)
    z_line = sys_.network.r_T + 1j * omega0 * sys_.network.l_T

    v_gen = spec.gen_voltage_mag * np.exp(1j * spec.gen_voltage_angle)
    if n_v > n_g:
        A = Y[n_g:, n_g:]
        rhs = -Y[n_g:, :n_g] @ v_gen
        v_load = np.linalg.solve(A, rhs)
        v = np.concatenate([v_gen, v_load])
    else:
        v = v_gen
    i_s = -(Y @ v)[:n_g]
    i_T = (E.T @ v) / z_line
    return v, i_s, i_T


def test_solve_network_matches_complex_phasor_oracle(three_bus):
    sys_, spec = three_bus
    sol = solve_network(sys_, spec)
    v_c, i_s_c, i_T_c = complex_phasor_solve(sys_, spec)

    def pairs_to_complex(w):
        return w[0::2] + 1j * w[1::2]

    scale_v = np.max(np.abs(v_c))
    scale_i = max(np.max(np.abs(i_s_c)), 1e-12)
    np.testing.assert_allclose(pairs_to_complex(sol.v), v_c,
                               atol=1e-9 * scale_v)
    np.testing.assert_allclose(pairs_to_complex(sol.i_s), i_s_c,
                               atol=1e-9 * scale_i)
    np.testing.assert_allclose(pairs_to_complex(sol.i_T), i_T_c,
                               atol=1e-9 * max(np.max(np.abs(i_T_c)), 1e-12))


def test_parallel_lines_add_up(three_bus):
    # A line from bus 2 to bus 1 beside the one from 1 to 2, and a second
    # line from 0 to 2: the admittance and the network solve add each
    # line's admittance, as the dense E diag(1 / z) E^T does.
    sys_, spec = three_bus
    net = sys_.network
    parallel = replace(net, heads=np.append(net.heads, [2, 0]),
                       tails=np.append(net.tails, [1, 2]),
                       r_T=np.append(net.r_T, [0.6, 0.45]),
                       l_T=np.append(net.l_T, [2e-3, 3.2e-3]))
    assert [(h, t) for h, t in zip(net.heads, net.tails)] == \
        [(0, 1), (1, 2), (0, 2)]
    for omega0 in (0.0, spec.omega0):
        want = dense_line_admittance(parallel, omega0)
        got = line_admittance(parallel, omega0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    sys_ = assemble(list(sys_.machines), [0, 1], parallel,
                    loads=list(sys_.loads), bus_ids=list(sys_.bus_ids))
    sol = solve_network(sys_, spec)
    v_c, i_s_c, i_T_c = complex_phasor_solve(sys_, spec)
    for got, want in ((sol.v, v_c), (sol.i_s, i_s_c), (sol.i_T, i_T_c)):
        np.testing.assert_allclose(as_complex(got), want,
                                   atol=1e-12 * np.max(np.abs(want)))


def test_solver_output_satisfies_network_residual(three_bus):
    sys_, spec = three_bus
    sol = solve_network(sys_, spec)
    rho_n = network_residual(sys_.network, sys_.loads, sol.i_s, sol.v,
                             sol.i_T, spec.omega0)
    scale = max(1.0, np.max(np.abs(sol.v)))
    assert np.max(np.abs(rho_n)) <= 1e-9 * scale


def test_newton_one_step_for_impedance_loads(three_bus):
    sys_, spec = three_bus
    sol = solve_network(sys_, spec)
    assert sol.iterations <= 2


@pytest.mark.parametrize("n_bus", [32, 64])
def test_newton_one_step_for_impedance_mesh(n_bus):
    # The balance is affine in the load-bus voltages, so one exact Newton
    # step solves it.
    sys_, spec = ring_mesh(n_bus, ("impedance",), seed=n_bus)
    sol = solve_network(sys_, spec)
    gauge = max(1.0, float(np.max(np.abs(sol.v))))
    assert sol.residual_history[1] <= spec.newton.tol * gauge
    assert sol.iterations == 2


def test_balance_jacobian_matches_central_difference():
    sys_, spec = ring_mesh(20, ("impedance", "current", "power"), seed=3)
    n_g = sys_.n_g
    rng = np.random.default_rng(7)
    v = np.concatenate([spec.gen_voltages(),
                        rng.uniform(5.0, 12.0, 2 * sys_.n_l)])

    lines = line_admittance(sys_.network, spec.omega0)

    def nodal(w):
        return admittance(sys_.network, sys_.load_bank.admittance(
            as_complex(w)), spec.omega0, lines)

    def load_rows(w):
        return (nodal(w) @ as_complex(w)).view(float)[2 * n_g:]

    Y = nodal(v)
    jac = balance_jacobian(sys_, Y, v)
    h = 1e-5 * float(np.max(np.abs(v)))
    fd = np.empty_like(jac)
    for col in range(2 * sys_.n_l):
        step = np.zeros_like(v)
        step[2 * n_g + col] = h
        fd[:, col] = (load_rows(v + step) - load_rows(v - step)) / (2 * h)
    np.testing.assert_allclose(jac, fd, rtol=0,
                               atol=1e-6 * float(np.max(np.abs(fd))))
    # The rank-one load terms are far above that tolerance.
    assert np.max(np.abs(jac - real_blocks(Y[n_g:, n_g:]))) \
        > 1e-3 * float(np.max(np.abs(fd)))


def assert_same_solution(got, want):
    for name in ("v", "i_s", "i_T"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.iterations == want.iterations
    assert got.residual_history == want.residual_history


@pytest.mark.parametrize("level", [0.02, 2.0, 60.0])
@pytest.mark.parametrize("n_bus, kinds", [
    (8, ("power",)), (16, ("impedance", "current", "power")),
    (24, ("current",)), (32, ("impedance", "current", "power")),
    (48, ("impedance",)), (64, ("power", "current"))])
def test_solve_network_matches_reference_bit_for_bit(n_bus, kinds, level):
    # The workspace Newton (diagonal writes only) against the loop that
    # rebuilds the admittance and the whole Jacobian every iteration.
    sys_, spec = ring_mesh(n_bus, kinds, seed=n_bus + 1, level=level)
    sol = solve_network(sys_, spec)
    assert sol.iterations > 1
    assert_same_solution(sol, reference_solve_network(sys_, spec))


@pytest.mark.parametrize("omega0", [0.0, 314.0])
def test_solve_network_matches_reference_on_fixture_and_generator_buses(
        three_bus, omega0):
    for sys_, spec in (three_bus, two_generator_buses(omega0, [10.0, 9.0])):
        spec = replace(spec, omega0=omega0)
        assert_same_solution(solve_network(sys_, spec),
                             reference_solve_network(sys_, spec))


@pytest.mark.parametrize("kinds", [("impedance",), LOAD_KINDS])
def test_admittance_runs_once_per_newton_iteration(monkeypatch, kinds):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return admittance(*args, **kwargs)

    monkeypatch.setattr(steady_state, "admittance", counting)
    sys_, spec = ring_mesh(32, kinds, seed=5, level=2.0)
    sol = solve_network(sys_, spec)
    assert len(calls) == sol.iterations == len(sol.residual_history)


def test_a_solve_keeps_its_workspace_to_itself():
    # The Newton workspace lives for one solve: nothing is cached on the
    # system, so a repeated certify of the same case does all of its work.
    sys_, spec = ring_mesh(16, LOAD_KINDS, seed=4, level=2.0)
    owners = (sys_, sys_.layout, sys_.load_bank)
    before = [dict(vars(owner)) for owner in owners]
    first = solve_network(sys_, spec)
    verify_steady_state(sys_, compute_steady_state(sys_, spec))
    assert [dict(vars(owner)) for owner in owners] == before
    assert_same_solution(solve_network(sys_, spec), first)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("field, value", [("gen_voltage_mag", np.nan),
                                          ("gen_voltage_angle", np.inf),
                                          ("omega0", np.inf)])
def test_non_finite_residual_stops_newton_at_once(field, value):
    sys_, spec = ring_mesh(16, LOAD_KINDS, seed=2, level=2.0)
    if field == "omega0":
        bad = replace(spec, omega0=value)
    else:
        vals = getattr(spec, field).copy()
        vals[1] = value
        bad = replace(spec, **{field: vals})
    with pytest.raises(SolverError,
                       match="non-finite residual .* at iteration 1$"):
        solve_network(sys_, bad)


def test_newton_contracts_fast_for_power_loads():
    sys_, spec = slow_two_bus(omega0=5.0)
    loads = [Load.none(), Load.constant_power(5.0, 1.0, v_min=0.1)]
    sys_p = assemble(list(sys_.machines), [0], sys_.network, loads=loads,
                     bus_ids=list(sys_.bus_ids))
    sol = solve_network(sys_p, spec)
    hist = sol.residual_history
    assert hist[-1] <= 1e-10 * max(1.0, np.max(np.abs(sol.v)))
    # Error roughly squares near the solution; rounding in the residual
    # floors the last drops, so allow generous slack.
    drops = [hist[i + 1] / hist[i] for i in range(len(hist) - 1)
             if hist[i] > 1e-13]
    assert drops and min(drops) < 1e-3


def test_newton_failure_reports_residual():
    sys_, spec = slow_two_bus(omega0=5.0)
    loads = [Load.none(), Load.constant_power(5.0, 1.0, v_min=0.1)]
    sys_p = assemble(list(sys_.machines), [0], sys_.network, loads=loads,
                     bus_ids=list(sys_.bus_ids))
    spec = OperatingSpec(omega0=spec.omega0,
                         gen_voltage_mag=spec.gen_voltage_mag,
                         gen_voltage_angle=spec.gen_voltage_angle,
                         sigma=spec.sigma,
                         newton=NewtonOptions(max_iter=1))
    with pytest.raises(SolverError, match="did not converge"):
        solve_network(sys_p, spec)


def test_network_solve_refuses_custom_loads(three_bus):
    # Custom loads are outside the load bank the Newton step is built from;
    # solving without them would hand assembly a wrong network point.
    sys_, spec = three_bus
    bad = sys_.with_loads([sys_.loads[0], sys_.loads[1], AnisotropicLoad()])
    with pytest.raises(SolverError, match="custom loads at bus.*'b3'"):
        solve_network(bad, spec)


def test_imbalanced_nodes_admit_no_line_currents(three_bus):
    # Only the branch-eliminated line current zeroes the line block of the
    # network residual, and there the bus block equals the nodal imbalance;
    # so a point violating nodal balance extends to no network steady state.
    sys_, spec = three_bus
    rng = np.random.default_rng(50)
    for _ in range(10):
        v = rng.uniform(-3, 3, 2 * sys_.n_v)
        i_s = rng.uniform(-2, 2, 2 * sys_.n_g)
        E2 = real_blocks(dense_incidence(sys_.network))
        i_T_star = solve_branch_currents(sys_.network, spec.omega0, E2.T @ v)
        rho_star = network_residual(sys_.network, sys_.loads, i_s, v,
                                    i_T_star, spec.omega0)
        nodal = nodal_balance_residual(sys_.network, sys_.loads, i_s, v,
                                       spec.omega0)
        np.testing.assert_allclose(rho_star[:2 * sys_.n_v], nodal, atol=1e-12)
        np.testing.assert_allclose(rho_star[2 * sys_.n_v:],
                                   np.zeros(2 * sys_.n_t), atol=1e-12)
        assert np.max(np.abs(nodal)) > 1e-3  # generic point is imbalanced
        for _ in range(5):
            other = i_T_star + rng.uniform(-0.5, 0.5, 2 * sys_.n_t)
            rho = network_residual(sys_.network, sys_.loads, i_s, v, other,
                                   spec.omega0)
            # Any other line current leaves the line block nonzero.
            assert np.max(np.abs(rho[2 * sys_.n_v:])) > 1e-12


# ---------------------------------------------------------------- recovery


def test_recover_round_rotor_analytic_case():
    p = MachineParams(m=1, d=1, r_s=1, r_f=0.7, r_d=1, r_q=1, l_s=1, l_sa=0,
                      l_f=1, l_d=1, l_q=1, l_fd=0.1, l_sf=1.0, l_sd=0.5,
                      l_sq=0.4)
    v = np.array([1.0, 0.0])
    i_s = np.zeros(2)
    rec = recover_one(p, v, i_s, omega0=1.0, sigma=1)
    # Voltage demand is the full terminal voltage; the rotor aligns so the
    # quarter-turned rotor axis points along it.
    np.testing.assert_allclose(rec.nu, [1.0, 0.0], atol=1e-14)
    assert wrap_angle(rec.theta) == pytest.approx(-np.pi / 2, abs=1e-12)
    assert rec.i_f == pytest.approx(1.0, abs=1e-14)
    assert rec.v_f == pytest.approx(0.7, abs=1e-14)
    assert rec.tau_m == pytest.approx(
        p.d * 1.0 + _torque_at(p, rec, i_s), abs=1e-14)

    rec2 = recover_one(p, v, i_s, omega0=1.0, sigma=-1)
    assert wrap_angle(rec2.theta) == pytest.approx(np.pi / 2, abs=1e-12)
    assert rec2.i_f == pytest.approx(-1.0, abs=1e-14)


def _torque_at(p, rec, i_s):
    i = np.array([i_s[0], i_s[1], rec.i_f, 0.0, 0.0])
    return electrical_torque(p, rec.theta, i)


def test_recover_satisfies_defining_equation_randomized():
    # Acceptance-grade sweep: both rotor polarizations on salient and round
    # machines, against a brute-force angle scan.
    rng = np.random.default_rng(51)
    grid = np.linspace(-np.pi, np.pi, 3600, endpoint=False)
    step = grid[1] - grid[0]
    for trial in range(100):
        p = random_valid_params(rng)
        if trial % 2 == 0:
            p = replace(p, l_sa=0.0)
        v = rng.uniform(-3, 3, 2)
        i_s = rng.uniform(-3, 3, 2)
        omega0 = rng.uniform(10, 400) * rng.choice((-1, 1))
        gauge = max(1.0, float(np.linalg.norm(v)))

        thetas = {}
        for sigma in (1, -1):
            rec = recover_one(p, v, i_s, omega0, sigma)
            assert eq_vec_residual(p, v, i_s, omega0, rec.theta, rec.i_f) \
                <= 1e-9 * gauge
            assert rec.excitation_residual <= 1e-9
            assert rec.alignment_residual <= 1e-9
            # The polarization signs the excitation product; at positive
            # frequency that is the sign of the excitation current itself.
            assert np.sign(omega0 * p.l_sf * rec.i_f) in (0.0, float(sigma))
            if omega0 > 0:
                assert np.sign(rec.i_f) in (0.0, float(sigma))
            thetas[sigma] = rec.theta
        # Two antipodal angle solutions.
        dtheta = (thetas[1] - thetas[-1]) % (2 * np.pi)
        assert dtheta == pytest.approx(np.pi, abs=1e-9)

        # Brute-force scan of the rotor-frame quadrature component.
        f = rotor_frame_second_component(p, v, i_s, omega0, grid)
        absf = np.abs(f)
        if np.max(absf) > 1e-6 * gauge:
            # The closed-form roots bracket grid sign changes.
            for root in thetas.values():
                wrapped = (root + np.pi) % (2 * np.pi) - np.pi
                below = int(np.floor((wrapped - grid[0]) / step)) % 3600
                above = (below + 1) % 3600
                assert f[below] * f[above] <= 0.0 or \
                    min(absf[below], absf[above]) <= 1e-9 * gauge
            # Every prominent grid minimum lies within one step of a root.
            for idx in range(3600):
                if not (absf[idx] < absf[idx - 1]
                        and absf[idx] <= absf[(idx + 1) % 3600]
                        and absf[idx] < 0.1 * np.max(absf)):
                    continue
                dist = min(abs((grid[idx] - r + np.pi) % (2 * np.pi) - np.pi)
                           for r in thetas.values())
                assert dist <= 1.5 * step


def test_recover_nu_zero_flagged():
    p = sample_machine(salient=False)
    omega0 = 50.0
    i_s = np.array([1.0, -0.5])
    Zs = p.r_s * np.eye(2) + omega0 * p.l_s * ROT90
    v = Zs @ i_s  # terminal voltage exactly covers the stator drop
    rec = recover_one(p, v, i_s, omega0, sigma=1)
    assert rec.case == "nu_zero"
    assert rec.i_f == 0.0 and rec.v_f == 0.0
    assert np.linalg.norm(rec.nu) <= 1e-9 * np.linalg.norm(v)


def test_recover_alpha_equal_flagged():
    p = sample_machine(salient=True)
    omega0 = 80.0
    i_s = np.array([1.3, 0.4])
    saliency_mag = omega0 * p.l_sa * np.linalg.norm(i_s)
    # Choose v so the counter-rotating component has exactly that magnitude.
    target = saliency_mag * rvec(0.9)
    v = (p.r_s * np.eye(2) + omega0 * p.l_s * ROT90) @ i_s + ROT90 @ target
    rec = recover_one(p, v, i_s, omega0, sigma=1)
    assert rec.case in ("alpha_equal", "nu_zero")
    gauge = max(1.0, np.linalg.norm(v))
    assert eq_vec_residual(p, v, i_s, omega0, rec.theta, rec.i_f) \
        <= 1e-9 * gauge


def test_recover_zero_frequency():
    p = sample_machine(salient=True)
    i_s = np.array([0.7, -0.2])
    v = p.r_s * i_s
    rec = recover_one(p, v, i_s, omega0=0.0, sigma=1)
    assert rec.case == "omega_zero"
    assert rec.v_f == 0.0
    assert rec.tau_m == pytest.approx(_torque_at(p, rec, i_s), abs=1e-14)

    with pytest.raises(InfeasibleSteadyStateError):
        recover_one(p, v + np.array([0.5, 0.0]), i_s, omega0=0.0, sigma=1)


def test_rotor_inertia_and_inert_inductances_do_not_move_residual(three_bus,
                                                                  certified):
    # With damper currents at zero, the rotor self and mutual inductances
    # that only couple the damper circuits drop out of the steady state.
    sys_, spec = three_bus
    ss = certified
    rho0 = residual(sys_, ss.x, ss.u, ss.omega0)
    tweaked = [replace(sys_.machines[0], l_d=0.05, l_q=0.05, l_fd=2e-3,
                       l_f=0.2), sys_.machines[1]]
    sys_2 = assemble(tweaked, [0, 1], sys_.network, loads=list(sys_.loads),
                     bus_ids=list(sys_.bus_ids))
    rho1 = residual(sys_2, ss.x, ss.u, ss.omega0)
    np.testing.assert_allclose(rho1, rho0, atol=1e-12)


# ---------------------------------------------------------------- assembly


def test_assembled_fixture_residual(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    report = verify_steady_state(sys_, ss)
    assert report.residual_inf <= 1e-9 * tolerance_scale(ss.x, ss.u)
    # The damper currents, no field of the recovery, are zero in x.
    assert not ss.x[sys_.layout.sl_i].reshape(-1, 5)[:, 3:].any()


def test_model_field_equals_rotating_field_at_steady_state(three_bus,
                                                           certified):
    # On the steady-state set the model dynamics and the rigid-rotation
    # dynamics are the same vector field.
    from gridstate.system import steady_field, vector_field
    sys_, _ = three_bus
    ss = certified
    f = vector_field(sys_, ss.x, ss.u)
    fd = steady_field(sys_, ss.x, ss.omega0)
    scale = max(1.0, np.max(np.abs(fd)))
    np.testing.assert_allclose(f, fd, atol=1e-9 * scale)


def test_machine_rhs_at_recovered_point_rotates_currents(three_bus,
                                                         certified):
    from gridstate.frame import MACHINE_ROT90
    from oracles import MachineState, machine_rhs
    sys_, _ = three_bus
    ss = certified
    lay = sys_.layout
    theta, omega, i_flat, v, _ = lay.split(ss.x)
    tau_m, v_f = lay.split_input(ss.u)
    for k in range(sys_.n_g):
        i = i_flat[5 * k:5 * k + 5]
        state = MachineState(theta=theta[k], omega=omega[k],
                             i_s=i[:2].copy(), i_f=i[2], i_d=i[3], i_q=i[4])
        rhs = machine_rhs(sys_.machines[k], state, v[2 * k:2 * k + 2],
                          tau_m[k], v_f[k])
        assert rhs[0] == pytest.approx(ss.omega0)
        assert abs(rhs[1]) <= 1e-9 * max(1.0, abs(tau_m[k]) / sys_.machines[k].m)
        expect_di = ss.omega0 * (MACHINE_ROT90 @ i)
        scale = max(1.0, np.max(np.abs(expect_di)))
        np.testing.assert_allclose(rhs[2:], expect_di, atol=1e-9 * scale)


def test_tampered_torque_moves_torque_block_linearly(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    u_bad = ss.u.copy()
    u_bad[0] *= 1.01
    rho = residual(sys_, ss.x, u_bad, ss.omega0)
    lay = sys_.layout
    assert rho[lay.sl_omega][0] == pytest.approx(-0.01 * ss.u[0], rel=1e-9)


def test_both_polarizations_certify(three_bus):
    sys_, spec = three_bus
    base = compute_steady_state(sys_, spec)
    flipped_spec = OperatingSpec(
        omega0=spec.omega0, gen_voltage_mag=spec.gen_voltage_mag,
        gen_voltage_angle=spec.gen_voltage_angle,
        sigma=np.array([-1, 1]), newton=spec.newton)
    flipped = compute_steady_state(sys_, flipped_spec)
    for ss in (base, flipped):
        rep = verify_steady_state(sys_, ss)
        assert rep.certificate, rep.failures
    dtheta = (flipped.recovery.theta[0] - base.recovery.theta[0]) \
        % (2 * np.pi)
    assert dtheta == pytest.approx(np.pi, abs=1e-9)
    assert flipped.recovery.i_f[0] == pytest.approx(
        -base.recovery.i_f[0], rel=1e-9)


def test_assembly_rejects_off_manifold_network_point(three_bus):
    # Machine recovery makes the machine blocks consistent with whatever
    # terminal quantities it is handed; an imbalanced network point must
    # therefore surface in the node/line blocks and fail assembly.
    sys_, spec = three_bus
    net = solve_network(sys_, spec)
    net.v = net.v.copy()
    net.v[2:4] *= 1.05  # push the solution off the network manifold
    recovery = recover_all(sys_, spec, net)
    with pytest.raises(SolverError, match="fails verification") as err:
        assemble_steady_state(sys_, net, recovery, spec.omega0)
    assert "nodes" in str(err.value)


# ------------------------------------------------------------- certificate


def test_verify_certificate_true_on_fixture(three_bus, certified):
    sys_, _ = three_bus
    report = verify_steady_state(sys_, certified)
    assert report.certificate
    assert report.failures == []
    assert report.residual_inf <= 1e-9 * report.scale
    assert report.invariance_defect <= 1e-5 * report.scale
    assert max(report.equivariance_defects) <= 1e-12


def test_verify_flags_anisotropic_load(three_bus, certified):
    sys_, _ = three_bus
    bad_sys = sys_.with_loads([sys_.loads[0], sys_.loads[1],
                               AnisotropicLoad()])
    report = verify_steady_state(bad_sys, certified)
    assert not report.certificate
    assert any("not rotation-equivariant" in f for f in report.failures)


class SkewedImpedance(Load):
    """Test-only Load subclass whose ``current`` override scales the two
    axes differently, like :class:`AnisotropicLoad` with (1, 2)."""

    def current(self, v):
        v = np.asarray(v, dtype=float)
        return np.stack([v[0], 2.0 * v[1]])


def test_verify_flags_anisotropic_load_subclass(three_bus, certified):
    # A Load subclass is probed through its own ``current``, not through
    # the coefficients it inherits, so the override is seen and rejected
    # exactly as the plain anisotropic test load is.
    sys_, _ = three_bus
    skewed = SkewedImpedance("impedance", sys_.loads[2].coeffs)
    bad_sys = sys_.with_loads([sys_.loads[0], sys_.loads[1], skewed])
    report = verify_steady_state(bad_sys, certified)
    assert not report.certificate
    assert any("not rotation-equivariant" in f for f in report.failures)
    plain = verify_steady_state(
        sys_.with_loads([sys_.loads[0], sys_.loads[1],
                         AnisotropicLoad(1.0, 2.0)]), certified)
    assert report.equivariance_defects == plain.equivariance_defects
    assert report.failures == plain.failures
    v = certified.x[sys_.layout.sl_v]
    np.testing.assert_array_equal(bad_sys.load_currents(v)[4:],
                                  skewed.current(v[4:]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", ["sl_theta", "sl_omega", "sl_i", "sl_v",
                                   "sl_iT", "input"])
def test_a_nan_entry_fails_every_residual_gate(three_bus, certified, block):
    # Every gate compares as "not value <= threshold", so a NaN anywhere in
    # the residual rejects the state instead of passing each comparison.
    sys_, _ = three_bus
    x, u = certified.x.copy(), certified.u.copy()
    if block == "input":
        u[0] = np.nan
    else:
        x[getattr(sys_.layout, block).start] = np.nan
    report = verify_steady_state(sys_, replace(certified, x=x, u=u))
    assert not report.certificate
    assert np.isnan(report.residual_inf)
    assert report.failures[0].startswith("residual nan exceeds")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_assembly_rejects_a_nan_network_point(three_bus, certified):
    sys_, _ = three_bus
    v = certified.network.v.copy()
    v[-1] = np.nan
    with pytest.raises(SolverError, match=r"\|residual\|_inf = nan"):
        assemble_steady_state(sys_, replace(certified.network, v=v),
                              certified.recovery, certified.omega0)


def test_verify_flags_wrong_speed(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    lay = sys_.layout
    x_bad = ss.x.copy()
    x_bad[lay.sl_omega] += 1.0
    report = verify_steady_state(sys_, replace(ss, x=x_bad))
    assert not report.certificate
    assert any("rotor speeds deviate" in f for f in report.failures)
    assert report.residual_blocks["frequency"] == pytest.approx(1.0)


# ------------------------------------------------- certificate at any scale
# The invariance gate is exact, so its margin does not grow with the
# voltage: genuine steady states certify from millivolts to tens of volts.


@pytest.mark.parametrize("factor", [1.0, 3.3, 10.0, 33.0])
def test_fixture_certifies_at_scaled_voltages(three_bus, factor):
    sys_, spec = three_bus
    scaled = replace(spec, gen_voltage_mag=factor * spec.gen_voltage_mag)
    report = verify_steady_state(sys_, compute_steady_state(sys_, scaled))
    assert report.certificate, report.failures
    assert report.margins["invariance"] <= 1e-6


@pytest.mark.parametrize("level", [0.02, 2.0, 60.0])
def test_ring_mesh_certifies_at_any_voltage(level):
    sys_, spec = ring_mesh(32, LOAD_KINDS, seed=1, level=level)
    report = verify_steady_state(sys_, compute_steady_state(sys_, spec))
    assert report.certificate, report.failures
    assert report.margins["invariance"] <= 1e-3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([8, 12, 16, 24]),
       st.lists(st.sampled_from(LOAD_KINDS), min_size=1, max_size=3,
                unique=True),
       st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0))
def test_genuine_steady_states_certify(n_bus, kinds, seed, log_level):
    # Seeded ring-plus-chord topologies (connected by the ring), load mixes
    # and generator voltages from 0.01 to 100 V.
    sys_, spec = ring_mesh(n_bus, kinds, seed=seed, level=10.0**log_level)
    report = verify_steady_state(sys_, compute_steady_state(sys_, spec))
    assert report.certificate, report.failures
    assert max(report.margins.values()) <= 0.1


def test_controls_fail_by_wide_margins_at_low_voltage():
    # An anisotropic load fails the invariance gate (omega0 |v| against
    # 1e-5 omega0) and the rotation probe; a 1% input error fails the
    # residual gate. Each by at least 1e3 times its threshold, at 0.02 V.
    sys_, spec = ring_mesh(24, LOAD_KINDS, seed=1, level=0.02)
    ss = compute_steady_state(sys_, spec)
    loads = list(sys_.loads)
    loads[next(k for k, ld in enumerate(loads) if ld.kind != "none")] = \
        AnisotropicLoad()
    bad = verify_steady_state(sys_.with_loads(loads), ss)
    assert not bad.certificate
    assert bad.margins["invariance"] >= 1e3
    assert bad.margins["equivariance"] >= 1e3
    shifted = verify_steady_state(sys_, replace(ss, u=1.01 * ss.u))
    assert not shifted.certificate
    assert shifted.margins["residual"] >= 1e3


def test_round_rotor_without_demand_reports_zero_angle():
    # Machine 2 is a round rotor whose terminal voltage exactly covers its
    # stator drop: no excitation demand is left, every rotor angle balances
    # and none draws torque, so the recovery reports theta = 0 whatever the
    # rounding, and the assembled state passes the residual gate.
    round_ = sample_machine(salient=False)
    omega0 = 314.0
    c = np.array([1e-3, 2e-3])
    z_line = 0.4 + 1j * omega0 * 3e-3
    z_s = round_.r_s + 1j * omega0 * round_.l_s
    # Bus 2's balance, i_s = (v1 - v2) / z_line - j omega0 c2 v2, with
    # v2 = z_s i_s solved for v1.
    v2 = 5.0 * np.exp(0.2j)
    v1 = v2 * (1.0 + z_line / z_s + 1j * omega0 * c[1] * z_line)
    sys_ = assemble([sample_machine(salient=True), round_], [0, 1],
                    Network(heads=[0], tails=[1], c=c, r_T=np.array([0.4]),
                            l_T=np.array([3e-3])))
    spec = OperatingSpec(omega0=omega0, gen_voltage_mag=np.abs([v1, v2]),
                         gen_voltage_angle=np.angle([v1, v2]),
                         sigma=np.array([1, 1]))
    ss = compute_steady_state(sys_, spec)
    rec = ss.recovery
    assert rec.case == ["regular", "nu_zero"]
    assert rec.theta[1] == 0.0 and rec.i_f[1] == 0.0
    report = verify_steady_state(sys_, ss)
    assert report.residual_inf <= 1e-9 * report.scale
    assert report.certificate
