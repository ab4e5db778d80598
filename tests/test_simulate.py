import numpy as np
import pytest

import gridstate.simulate
from gridstate.errors import LoadDomainError, SolverError
from gridstate.frame import ROT90
from gridstate.simulate import (SimConfig, Trajectory, drift_metrics,
                                reference_trajectory, rk4_step, simulate)
from gridstate.steady_state import compute_steady_state
from gridstate.system import steady_field, total_energy

from conftest import ring_mesh, slow_two_bus
from oracles import rk4_step_fn, rot


def rotation_error_after_one_period(omega0, dt):
    """Global RK4 error on the planar rotation test system over one period."""
    x = np.array([1.0, 0.0])
    n = int(round(2 * np.pi / (omega0 * dt)))
    f = lambda y: omega0 * (ROT90 @ y)
    for _ in range(n):
        x = rk4_step_fn(f, x, dt)
    exact = rot(omega0 * n * dt) @ np.array([1.0, 0.0])
    return np.linalg.norm(x - exact)


def test_rk4_fixed_point_of_zero_field():
    x = np.array([1.0, -2.0, 3.0])
    out = rk4_step_fn(lambda y: np.zeros_like(y), x, 0.1)
    np.testing.assert_array_equal(out, x)


def test_rk4_single_step_local_error_on_rotation():
    omega0, dt = 10.0, 1e-3
    x = np.array([1.0, 0.0])
    stepped = rk4_step_fn(lambda y: omega0 * (ROT90 @ y), x, dt)
    exact = rot(omega0 * dt) @ x
    err = np.linalg.norm(stepped - exact)
    assert err < (omega0 * dt) ** 5  # fifth-order local truncation


def test_rk4_order_four_convergence():
    omega0 = 2 * np.pi * 50
    e1 = rotation_error_after_one_period(omega0, 2e-5)
    e2 = rotation_error_after_one_period(omega0, 1e-5)
    assert e1 / e2 == pytest.approx(16.0, abs=2.0)


def test_simulate_sample_count_and_grid():
    sys_, spec = slow_two_bus()
    ss = compute_steady_state(sys_, spec)
    traj = simulate(sys_, ss.x, ss.u, SimConfig(dt=1e-3, t_end=1e-3))
    assert len(traj.times) == 2
    np.testing.assert_allclose(traj.times, [0.0, 1e-3])

    traj = simulate(sys_, ss.x, ss.u,
                    SimConfig(dt=1e-3, t_end=0.05, record_every=10))
    assert len(traj.times) == 0.05 / 1e-3 // 10 + 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("record_every, t", [(1, "5.000000e-02"),
                                              (100, "8.000000e-02")])
def test_a_run_that_leaves_the_finite_states_raises(three_bus, certified,
                                                    record_every, t):
    # The first recorded time whose state is not finite is named; when no
    # recorded state is bad yet, the time of the check that stopped the run.
    sys_, _ = three_bus
    cfg = SimConfig(dt=1e-2, t_end=0.5, record_every=record_every)
    with pytest.raises(SolverError, match=f"state not finite at t={t}"):
        simulate(sys_, certified.x, certified.u, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_run_stops_by_twice_its_first_bad_step(monkeypatch,
                                                           three_bus,
                                                           certified):
    # At dt = 1e-2 the fixture's state leaves the finite numbers at step 5;
    # the check at step 8 stops the run there, not at step 50.
    sys_, _ = three_bus
    calls = counting_field(monkeypatch)
    with pytest.raises(SolverError,
                       match="state not finite at t=5.000000e-02"):
        simulate(sys_, certified.x, certified.u, SimConfig(dt=1e-2, t_end=0.5))
    assert len(calls) == 4 * 8


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, t_end=1e-4)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, t_end=1.0, record_every=0)


def test_reference_trajectory_identity_and_period(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    np.testing.assert_array_equal(reference_trajectory(sys_, ss.x, ss.omega0,
                                                       0.0), ss.x)
    period = 2 * np.pi / ss.omega0
    xT = reference_trajectory(sys_, ss.x, ss.omega0, period)
    lay = sys_.layout
    np.testing.assert_allclose(xT[lay.sl_theta],
                               ss.x[lay.sl_theta] + 2 * np.pi, rtol=1e-12)
    np.testing.assert_allclose(xT[lay.sl_v], ss.x[lay.sl_v], atol=1e-12)
    np.testing.assert_allclose(xT[lay.sl_i], ss.x[lay.sl_i], atol=1e-12)


def test_reference_trajectory_flows_along_steady_field(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    t, h = 0.0123, 1e-7
    fd = (reference_trajectory(sys_, ss.x, ss.omega0, t + h)
          - reference_trajectory(sys_, ss.x, ss.omega0, t - h)) / (2 * h)
    exact = steady_field(sys_, reference_trajectory(sys_, ss.x, ss.omega0, t),
                         ss.omega0)
    scale = max(1.0, np.max(np.abs(exact)))
    np.testing.assert_allclose(fd, exact, atol=1e-5 * scale)


def test_reference_preserves_pair_magnitudes(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    lay = sys_.layout
    for t in (0.001, 0.01, 0.3):
        ref = reference_trajectory(sys_, ss.x, ss.omega0, t)
        for sl in (lay.sl_v, lay.sl_iT):
            a = ss.x[sl].reshape(-1, 2)
            b = ref[sl].reshape(-1, 2)
            np.testing.assert_allclose(np.linalg.norm(a, axis=1),
                                       np.linalg.norm(b, axis=1), rtol=1e-12)


def test_drift_metrics_vanish_on_exact_reference(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    times = np.linspace(0.0, 0.02, 11)
    states = np.array([reference_trajectory(sys_, ss.x, ss.omega0, t)
                       for t in times])
    traj = Trajectory(times=times, states=states, inputs=ss.u)
    m = drift_metrics(sys_, traj, ss.x, ss.omega0)
    assert m.state_deviation <= 1e-12
    assert m.voltage_magnitude_deviation <= 1e-12
    assert m.frequency_deviation == 0.0
    assert m.residual <= 1e-9


def test_drift_metrics_report_perturbed_start(three_bus, certified):
    # A 5% voltage perturbation leaves the steady-state set: the residual
    # metric reports it even though the reference starts at the same point.
    sys_, _ = three_bus
    ss = certified
    lay = sys_.layout
    x0 = ss.x.copy()
    x0[lay.sl_v] *= 1.05
    traj = Trajectory(times=np.array([0.0]), states=x0[None, :], inputs=ss.u)
    m = drift_metrics(sys_, traj, x0, ss.omega0)
    assert m.residual > 1e-4
    assert m.state_deviation <= 1e-15

    # On a system whose scale gauge is set by the electrical signals rather
    # than the frequency, the metric clears 1e-3.
    sys2, spec2 = slow_two_bus()
    ss2 = compute_steady_state(sys2, spec2)
    x2 = ss2.x.copy()
    x2[sys2.layout.sl_v] *= 1.05
    traj2 = Trajectory(times=np.array([0.0]), states=x2[None, :],
                       inputs=ss2.u)
    assert drift_metrics(sys2, traj2, x2, ss2.omega0).residual > 1e-3


def test_short_certified_run_stays_on_reference(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    traj = simulate(sys_, ss.x, ss.u,
                    SimConfig(dt=1e-5, t_end=5e-3, record_every=10))
    m = drift_metrics(sys_, traj, ss.x, ss.omega0)
    assert m.state_deviation <= 1e-8
    assert m.voltage_magnitude_deviation <= 1e-8
    assert m.frequency_deviation <= 1e-8 * ss.omega0


def test_energy_dissipates_without_input(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    u0 = np.zeros_like(ss.u)
    traj = simulate(sys_, ss.x, u0,
                    SimConfig(dt=1e-5, t_end=0.02, record_every=20))
    energies = np.array([total_energy(sys_, x) for x in traj.states])
    from gridstate.system import tolerance_scale
    tol = 1e-9 * tolerance_scale(ss.x, u0)
    assert np.all(np.diff(energies) <= tol)
    assert energies[-1] < energies[0]


def test_rk4_step_wraps_system_field(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    from gridstate.system import vector_field
    direct = rk4_step_fn(lambda y: vector_field(sys_, y, ss.u), ss.x, 1e-5)
    np.testing.assert_array_equal(rk4_step(sys_, ss.x, ss.u, 1e-5), direct)


def counting_field(monkeypatch, evaluate=None):
    """Replace the module global ``simulate.vector_field`` that ``rk4_step``
    calls with a wrapper counting its calls; ``evaluate(call, sys, y, u)``,
    when given, makes each call."""
    calls = []
    field = gridstate.simulate.vector_field

    def wrapped(sys_, y, u):
        calls.append(y)
        if evaluate is not None:
            return evaluate(len(calls), sys_, y, u)
        return field(sys_, y, u)

    monkeypatch.setattr(gridstate.simulate, "vector_field", wrapped)
    return calls


def test_rk4_step_makes_four_vector_field_calls(monkeypatch, three_bus,
                                                certified):
    sys_, _ = three_bus
    ss = certified
    want = rk4_step(sys_, ss.x, ss.u, 1e-5)
    calls = counting_field(monkeypatch)
    np.testing.assert_array_equal(rk4_step(sys_, ss.x, ss.u, 1e-5), want)
    assert len(calls) == 4
    np.testing.assert_array_equal(calls[0], ss.x)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_load_domain_error_names_the_rk4_stage_and_bus(monkeypatch, stage):
    sys_, spec = ring_mesh(16, ("current", "power"), seed=3)
    ss = compute_steady_state(sys_, spec)
    lay = sys_.layout
    k = next(k for k, ld in enumerate(sys_.loads) if ld.v_min > 0.0)
    bus = sys_.bus_ids[k]
    field = gridstate.simulate.vector_field

    def evaluate(call, s, y, u):
        if call == stage:
            # Drop the load bus below its floor in this stage only.
            y = y.copy()
            y[lay.sl_v.start + 2 * k:lay.sl_v.start + 2 * k + 2] = 0.0
        return field(s, y, u)

    counting_field(monkeypatch, evaluate)
    with pytest.raises(LoadDomainError) as info:
        rk4_step(sys_, ss.x, ss.u, 1e-5)
    message = str(info.value)
    assert message.startswith(f"stage {stage} of RK4 step: ")
    assert f"bus {bus!r}" in message
    assert info.value.bus == bus
