import json
import tracemalloc
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstate import steady_state
from gridstate.errors import (InfeasibleSteadyStateError, LoadDomainError,
                              SolverError)
from gridstate.fileio import system_from_dict
from gridstate.frame import ROT90, as_complex, real_blocks, wrap_angle
from gridstate.identities import random_valid_params
from gridstate.loads import Load
from gridstate.machine import MachineParams
from gridstate.network import Network, admittance
from gridstate.steady_state import (NewtonOptions, OperatingSpec,
                                    assemble_steady_state,
                                    compute_steady_state, recover_all,
                                    solve_network, verify_steady_state)
from gridstate.system import assemble, residual, tolerance_scale

from conftest import (AnisotropicLoad, benchmark_cases, ring_mesh,
                      sample_machine, singular_solve_at, slow_two_bus)
from oracles import (balance_jacobian, branch_currents, branch_impedance,
                     dense_admittance, dense_incidence, dense_line_admittance,
                     electrical_torque, excitation_demand, generator_pairs,
                     network_residual, nodal_balance_residual, recover_one,
                     reference_iterates, reference_solve_network, rvec)

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
    # line's admittance, as the dense E diag(1 / z) E^T plus the diagonal
    # shunts does.
    sys_, spec = three_bus
    net = sys_.network
    parallel = replace(net, heads=np.append(net.heads, [2, 0]),
                       tails=np.append(net.tails, [1, 2]),
                       r_T=np.append(net.r_T, [0.6, 0.45]),
                       l_T=np.append(net.l_T, [2e-3, 3.2e-3]))
    assert [(h, t) for h, t in zip(net.heads, net.tails)] == \
        [(0, 1), (1, 2), (0, 2)]
    y_load = sys_.load_bank.y
    for omega0 in (0.0, spec.omega0):
        want = dense_admittance(parallel, y_load, omega0)
        got = admittance(parallel, y_load, omega0)
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
    assert sol.iterations == 1


def assert_full_balance(sys_, spec, sol):
    """The oracle's dense balance (lines, shunts, y(v)) @ v at a solution:
    within the Newton tolerance on the load buses, and minus the stator
    currents on the machine buses to 1e-12 of the largest of |i_s| and
    |v| / |z| over the lines."""
    vc, net = as_complex(sol.v), sys_.network
    Y = dense_admittance(net, sys_.load_bank.admittance(vc), spec.omega0)
    balance, n = (Y @ vc).view(float), 2 * sys_.n_g
    top = float(np.max(abs(sol.v)))
    amps = top / np.min(abs(net.r_T + 1j * spec.omega0 * net.l_T))
    assert np.max(abs(balance[n:]), initial=0.0) \
        <= spec.newton.tol * max(1.0, top)
    assert np.max(abs(sol.i_s + balance[:n])) \
        <= 1e-12 * max(amps, np.max(abs(sol.i_s)))


@pytest.mark.parametrize("n_bus", [32, 64])
def test_newton_one_step_for_impedance_mesh(n_bus):
    # The balance is affine in the load-bus voltages: the solve eliminates
    # every load bus and has no Newton step left, so its one iteration is
    # one linear solve. No nonlinear bus is left, so its one history entry,
    # the reduced imbalance, reads exactly 0; the elimination's full balance
    # is the oracle's to check.
    sys_, spec = ring_mesh(n_bus, ("impedance",), seed=n_bus)
    sol = solve_network(sys_, spec)
    assert sol.iterations == 1
    assert sol.residual_history == [0.0]
    assert_full_balance(sys_, spec, sol)
    assert reference_solve_network(sys_, spec).iterations == 2


def test_balance_jacobian_matches_central_difference():
    sys_, spec = ring_mesh(20, ("impedance", "current", "power"), seed=3)
    n_g = sys_.n_g
    rng = np.random.default_rng(7)
    v = np.concatenate([generator_pairs(spec),
                        rng.uniform(5.0, 12.0, 2 * sys_.n_l)])

    def nodal(w):
        return admittance(sys_.network, sys_.load_bank.admittance(
            as_complex(w)), spec.omega0)

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


def assert_agrees_with_reference(sys_, spec, got, want):
    """The Kron-reduced solve ``got`` against the full Newton ``want`` of
    :func:`reference_solve_network`, whose iterates it shares from the
    first step on: v, i_s and i_T to 1e-12 relative, the same iteration
    count and the residual history after the start, which differs, to
    1e-12 relative. When every load bus is linear no Newton step is left:
    one iteration against at most two, a history of [0.0], and the
    oracle's full balance at the solution instead. Currents, residuals
    included, are relative to the largest of |i| and |v| / |z| over the
    lines, as some vanish."""
    net = sys_.network
    top = float(np.max(abs(want.v)))
    amps = top / np.min(abs(net.r_T + 1j * spec.omega0 * net.l_T))
    for name, gauge in (("v", top), ("i_s", amps), ("i_T", amps)):
        g, w = getattr(got, name), getattr(want, name)
        assert np.max(abs(g - w)) <= 1e-12 * max(gauge, np.max(abs(w))), name
    if any(load.exponent for load in sys_.loads[sys_.n_g:]):
        assert got.iterations == want.iterations
        np.testing.assert_allclose(got.residual_history[1:],
                                   want.residual_history[1:], rtol=1e-12,
                                   atol=1e-12 * amps)
    else:
        assert got.iterations == 1 and want.iterations <= 2
        # The reduced balance is empty; the reference ends on the full one.
        assert got.residual_history == [0.0]
        assert_full_balance(sys_, spec, got)


@pytest.mark.parametrize("level", [0.02, 2.0, 60.0])
@pytest.mark.parametrize("n_bus, kinds", [
    (8, ("power",)), (16, ("impedance", "current", "power")),
    (24, ("current",)), (32, ("impedance", "current", "power")),
    (48, ("impedance",)), (64, ("power", "current"))])
def test_solve_network_matches_reference_bit_for_bit(n_bus, kinds, level):
    # The Kron-reduced Newton (diagonal writes only) against the loop that
    # rebuilds the admittance and the whole Jacobian of the full balance
    # every iteration; once bit for bit, now to 1e-12 relative, as the
    # elimination rounds differently.
    sys_, spec = ring_mesh(n_bus, kinds, seed=n_bus + 1, level=level)
    want = reference_solve_network(sys_, spec)
    assert want.iterations > 1
    assert_agrees_with_reference(sys_, spec, solve_network(sys_, spec),
                                 want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 20),
       st.sampled_from(["linear", "nonlinear", "machine buses too"]),
       st.sampled_from([0.0, 50.0, 314.0]), st.floats(0.02, 60.0))
def test_the_reduced_solve_follows_the_full_newton(seed, n_bus, mix, omega0,
                                                   level):
    # Random connected topologies (a random tree, chords and parallel
    # lines), with load buses all linear, all nonlinear, or of every kind
    # with loads on the machine buses too, as light as the benchmark's: the
    # Kron-reduced solve against the full Newton from the flat start.
    rng = np.random.default_rng(seed)
    ends = [(b, int(rng.integers(b))) for b in range(1, n_bus)]
    ends += [tuple(rng.choice(n_bus, 2, replace=False))
             for _ in range(int(rng.integers(n_bus // 2 + 1)))]
    ends += [ends[t][::-1] for t in rng.integers(len(ends), size=2)]
    heads, tails = np.array(ends).T
    n_t = len(ends)
    net = Network(heads=heads, tails=tails, c=rng.uniform(2e-4, 2e-3, n_bus),
                  r_T=rng.uniform(0.3, 0.5, n_t),
                  l_T=rng.uniform(2.5e-3, 3.5e-3, n_t))
    gen_buses = rng.choice(n_bus, int(rng.integers(1, n_bus // 2 + 1)),
                           replace=False)
    kinds = {"linear": ["none", "impedance"], "nonlinear": ["current", "power"],
             "machine buses too": ["none", "impedance", "current", "power"]}
    make = {"none": lambda g, b: Load.none(), "impedance": Load.impedance,
            "current": lambda g, b: Load.constant_current(g * level,
                                                          b * level),
            "power": lambda g, b: Load.constant_power(g * level**2,
                                                      b * level**2)}
    loads = [Load.none()] * n_bus
    for k in range(n_bus):
        if k not in gen_buses or mix == "machine buses too":
            loads[k] = make[rng.choice(kinds[mix])](rng.uniform(3e-3, 8e-3),
                                                    rng.uniform(1e-3, 3e-3))
    n_g = len(gen_buses)
    sys_ = assemble([sample_machine(k % 2 == 0) for k in range(n_g)],
                    list(gen_buses), net, loads=loads)
    spec = OperatingSpec(omega0=omega0,
                         gen_voltage_mag=level * rng.uniform(0.98, 1.02, n_g),
                         gen_voltage_angle=np.radians(rng.uniform(-2, 2, n_g)),
                         sigma=np.ones(n_g, dtype=int))
    try:
        want = reference_solve_network(sys_, spec)
    except (SolverError, LoadDomainError):
        # Some drawn networks, such as long trees at 314 rad/s, leave
        # Newton from the flat start without a steady state; on the same
        # iterates the reduced solve fails too.
        with pytest.raises(SolverError):
            solve_network(sys_, spec)
        return
    assert_agrees_with_reference(sys_, spec, solve_network(sys_, spec), want)


def mesh_640(fixture_path):
    """The seed-7 640-bus mesh that CI runs through the console script."""
    cases = benchmark_cases()
    return system_from_dict(cases.mesh_document(
        cases.read_document(fixture_path), 7, 640, 6.0))


def test_the_reduced_solve_follows_the_full_newton_on_the_640_bus_mesh(
        fixture_path):
    sys_, spec = mesh_640(fixture_path)
    want = reference_solve_network(sys_, spec)
    assert want.iterations > 1
    assert_agrees_with_reference(sys_, spec, solve_network(sys_, spec),
                                 want)


def test_a_solve_holds_one_dense_admittance_in_solve_order(fixture_path):
    # The constant admittance is built in solve order, from the network
    # relabelled once per system, so no permuted copy of it is made, and
    # no full balance is taken at the solution: a solve holds one dense
    # n_v x n_v complex matrix plus what the elimination's solve copies,
    # 1.50 such matrices here. The bound sits below the 2.03 that
    # permuting a dense admittance reads; the traced peak is deterministic.
    sys_, spec = mesh_640(fixture_path)
    tracemalloc.start()
    try:
        solve_network(sys_, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * sys_.n_v**2 * 16


@pytest.mark.parametrize("omega0", [0.0, 314.0])
def test_solve_network_matches_reference_on_fixture_and_generator_buses(
        three_bus, omega0):
    for sys_, spec in (three_bus, two_generator_buses(omega0, [10.0, 9.0])):
        spec = replace(spec, omega0=omega0)
        assert_agrees_with_reference(sys_, spec, solve_network(sys_, spec),
                                     reference_solve_network(sys_, spec))


@pytest.mark.parametrize("kinds", [("impedance",), LOAD_KINDS])
def test_admittance_runs_once_per_solve(monkeypatch, kinds):
    # Once, for the constant admittance the solve reduces, however many
    # iterations run: no admittance is built at an iterate's load
    # admittances or at the solution.
    calls = []

    def counting(net, y_load, omega0):
        calls.append(y_load)
        return admittance(net, y_load, omega0)

    monkeypatch.setattr(steady_state, "admittance", counting)
    sys_, spec = ring_mesh(32, kinds, seed=5, level=2.0)
    sol = solve_network(sys_, spec)
    assert len(calls) == 1
    bank = sys_.load_bank
    assert np.array_equal(calls[0], bank.y_linear[bank.solve_order])
    assert sol.iterations == len(sol.residual_history)
    assert (sol.iterations == 1) == (kinds == ("impedance",))


def test_balance_at_the_solution_counts_machine_bus_loads():
    # The solve reduces the constant admittance, which leaves out every
    # load with k > 0; at the solution it adds their currents to the
    # machine rows of the reduction. With constant-current and
    # constant-power loads on the machine buses, the stator currents are
    # those of the full dense balance (lines, shunts, y(v)) at v, and the
    # last history entry, the reduced imbalance there, reads its largest
    # load-bus imbalance to rounding.
    level = 2.0
    sys_, spec = ring_mesh(32, LOAD_KINDS, seed=5, level=level)
    n_g, loads = sys_.n_g, list(sys_.loads)
    for k in range(n_g):
        loads[k] = (Load.constant_current(0.05 * level, 0.02 * level) if k % 2
                    else Load.constant_power(0.05 * level**2, 0.02 * level**2))
    sys_ = sys_.with_loads(loads)
    sol = solve_network(sys_, spec)
    vc = as_complex(sol.v)
    Y = dense_admittance(sys_.network, sys_.load_bank.admittance(vc),
                         spec.omega0)
    balance = (Y @ vc).view(float)
    gauge = 1e-13 * float(np.max(abs(balance[:2 * n_g])))
    assert np.max(abs(sol.i_s + balance[:2 * n_g])) <= gauge
    assert abs(sol.residual_history[-1]
               - np.max(abs(balance[2 * n_g:]))) <= gauge


def test_one_real_form_build_per_solve(monkeypatch):
    # real_blocks writes the reduced Jacobian's constant part, on the
    # nonlinear load buses alone, once per solve at its first step; each
    # iteration writes only the diagonal 2x2 blocks, in place. A solve with
    # no nonlinear load takes no step and builds no Jacobian.
    shapes = []

    def counting(*args, **kwargs):
        shapes.append(args[0].shape)
        return real_blocks(*args, **kwargs)

    monkeypatch.setattr(steady_state, "real_blocks", counting)
    for kinds, n_n, iterations in ((LOAD_KINDS, 16, 5), (("impedance",), 0, 1)):
        sys_, spec = ring_mesh(32, kinds, seed=5, level=2.0)
        assert sys_.load_bank.n_kept - sys_.n_g == n_n
        shapes.clear()
        assert solve_network(sys_, spec).iterations == iterations
        assert shapes == ([(n_n, n_n)] if n_n else [])


def test_the_jacobian_block_view_aliases_its_diagonal_blocks():
    # The Newton step writes the Jacobian's diagonal 2x2 blocks through a
    # view built from the matrix's strides: the same entries, writable,
    # and no other entry of the matrix.
    rng = np.random.default_rng(12)
    for n in (0, 1, 2, 5):
        jac = rng.standard_normal((2 * n, 2 * n))
        before = jac.copy()
        view = steady_state._diagonal_blocks(jac)
        assert view.shape == (n, 2, 2)
        assert np.shares_memory(view, jac) or n == 0
        blocks = [jac[2 * k:2 * k + 2, 2 * k:2 * k + 2] for k in range(n)]
        np.testing.assert_array_equal(view, np.reshape(blocks, (n, 2, 2)))
        view[...] = np.arange(4 * n).reshape(n, 2, 2) + 0.5
        on = np.kron(np.eye(n, dtype=bool), np.ones((2, 2), dtype=bool))
        np.testing.assert_array_equal(jac[~on], before[~on])
        for k in range(n):
            np.testing.assert_array_equal(
                jac[2 * k:2 * k + 2, 2 * k:2 * k + 2],
                np.arange(4 * k, 4 * k + 4).reshape(2, 2) + 0.5)


def test_a_solve_keeps_its_workspace_to_itself():
    # The Newton workspace lives for one solve. The first solve leaves only
    # the network relabelled in solve order on the system, O(n_v + n_t)
    # entries, and on it the line admittance's scatter positions, O(n_t)
    # integers that depend on its edge list alone: no admittance, Jacobian
    # or index of it. A certify of the same case adds only the linear rows
    # its residual shares with the field, O(n_x + n_t) entries, and does
    # all of its other work.
    sys_, spec = ring_mesh(16, LOAD_KINDS, seed=4, level=2.0)
    owners = (sys_, sys_.network, sys_.layout, sys_.load_bank)
    before = [dict(vars(owner)) for owner in owners]
    first = solve_network(sys_, spec)
    after = [dict(vars(owner)) for owner in owners]
    added = [{name: value for name, value in new.items() if name not in old}
             for old, new in zip(before, after)]
    assert [sorted(names) for names in added] == \
        [["solve_order_network"], [], [], []]
    ordered = added[0]["solve_order_network"]
    assert vars(ordered).keys() == vars(sys_.network).keys() | {"scatter"}
    assert ordered.scatter.shape == (8 * sys_.n_t,)
    assert ordered.scatter.dtype.kind == "i"
    assert [{name: new[name] for name in old}
            for old, new in zip(before, after)] == before
    verify_steady_state(sys_, compute_steady_state(sys_, spec))
    certified = [dict(vars(owner)) for owner in owners]
    rows = certified[0].pop("linear_rows")
    assert certified == after
    assert all(a.ndim == 1 and a.size <= 2 * sys_.n_x + 8 * sys_.n_t
               for a in rows)
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


def failure_tail(sys_, v, history):
    """How a failed solve ended, from the reference: the first, smallest and
    last entries of ``history`` and, by bus id, the load bus with the lowest
    |v| at the voltage pairs ``v``."""
    mag = np.hypot(*v.reshape(-1, 2).T)[sys_.n_g:]
    weakest = sys_.bus_ids[sys_.n_g + int(np.argmin(mag))]
    return (f"residual history {history[0]:.3e} first, {min(history):.3e} "
            f"smallest, {history[-1]:.3e} last; lowest load-bus voltage "
            f"|v| = {mag.min():.3e} at bus {weakest!r}")


def test_newton_failure_reports_residual():
    # A solve that does not converge names the first, smallest and last
    # entries of its residual history and, by bus id, the load bus with the
    # lowest |v| at its last iterate, its linear buses recovered: the
    # reference iterates from the reduced solve's start, to the digits
    # shown.
    sys_, spec = slow_two_bus(omega0=5.0)
    loads = [Load.none(), Load.constant_power(5.0, 1.0, v_min=0.1)]
    sys_p = assemble(list(sys_.machines), [0], sys_.network, loads=loads,
                     bus_ids=list(sys_.bus_ids))
    spec = OperatingSpec(omega0=spec.omega0,
                         gen_voltage_mag=spec.gen_voltage_mag,
                         gen_voltage_angle=spec.gen_voltage_angle,
                         sigma=spec.sigma,
                         newton=NewtonOptions(max_iter=1))
    mesh, mesh_spec = ring_mesh(16, LOAD_KINDS, seed=4, level=2.0)
    for sys_x, spec_x in ((sys_p, spec), (mesh, replace(
            mesh_spec, newton=NewtonOptions(max_iter=3)))):
        cap = spec_x.newton.max_iter
        with pytest.raises(SolverError,
                           match=f"did not converge in {cap} iterations"
                           ) as err:
            solve_network(sys_x, spec_x)
        iterates = list(islice(reference_iterates(sys_x, spec_x, True),
                               cap + 1))
        history = [res for _, _, res in iterates[:cap]]
        assert str(err.value).endswith(
            "iterations; " + failure_tail(sys_x, iterates[cap][0], history))
    # The mesh tells the three history entries and its many buses apart.
    assert len(set(history)) == 3 and mesh.n_l > 1


def test_a_singular_jacobian_reports_how_the_solve_ended(monkeypatch,
                                                         fixture_path):
    # A singular Newton step stops the solve with the account of a solve
    # that runs out of iterations: the residual history so far and the
    # weakest load bus at the iterate it stopped on, by file bus id.
    cases = benchmark_cases()
    doc = cases.mesh_document(cases.read_document(fixture_path), 116, 16, 2.0)
    sys_, spec = system_from_dict(doc)
    iterates = list(islice(reference_iterates(sys_, spec, True), 3))
    history = [res for _, _, res in iterates[:2]]
    singular_solve_at(monkeypatch, 2)
    with pytest.raises(SolverError) as err:
        solve_network(sys_, spec)
    assert str(err.value) == ("singular Jacobian in network solve at "
                              "iteration 2; "
                              + failure_tail(sys_, iterates[1][0], history))
    # The weakest bus is read at the second iterate, not the third.
    assert failure_tail(sys_, iterates[1][0], history) \
        != failure_tail(sys_, iterates[2][0], history)


def test_a_load_leaving_its_domain_reports_how_the_solve_ended(
        three_bus, fixture_path):
    # A load driven below its floor stops the solve with the account of a
    # solve that runs out of iterations: the residual history so far and
    # the weakest load bus at the iterate that left the domain. Here the
    # fixture's load bus carries a constant-power load of floor v_min.
    sys_, spec = three_bus
    flat = float(np.mean(spec.gen_voltage_mag))
    for v_min, stop in ((5.0, 3), (flat + 1.0, 1)):
        loads = list(sys_.loads)
        loads[2] = Load.constant_power(20.0, 0.0, v_min=v_min)
        sys_p = sys_.with_loads(loads)
        with pytest.raises(SolverError) as err:
            solve_network(sys_p, spec)
        cause = err.value.__cause__
        assert isinstance(cause, LoadDomainError) and cause.bus == "b3"
        head = (f"network solve left a load's domain at iteration {stop}: "
                f"{cause}; ")
        assert str(err.value).startswith(head)
        history = [res for _, _, res in islice(
            reference_iterates(sys_p, spec, True), stop - 1)]
        # The only load bus is the one that left: its |v| is the cause's.
        mag = float(str(cause).partition("|v|=")[2].partition(" ")[0])
        tail = str(err.value)[len(head):]
        if history:
            assert tail == failure_tail(sys_p, np.r_[0, 0, 0, 0, mag, 0],
                                        history)
        else:  # the floor is hit at the flat start, before any residual
            assert mag == flat
            assert tail == ("no residual evaluated; lowest load-bus voltage "
                            f"|v| = {flat:.3e} at bus 'b3'")
    # With no load bus at all, a machine-bus load can still leave its
    # domain; the account then names no bus.
    doc = json.loads(fixture_path.read_text())
    doc["buses"] = doc["buses"][:2]
    doc["buses"][0]["load"] = {"type": "power",
                               "params": {"P": 1.0, "Q": 0.0, "v_min": 100}}
    doc["lines"] = [line for line in doc["lines"]
                    if "b3" not in (line["from"], line["to"])]
    with pytest.raises(SolverError, match=r"^network solve left a load's "
                       r"domain at iteration 1: bus 'b1': .*; no residual "
                       r"evaluated$"):
        solve_network(*system_from_dict(doc))


def test_a_with_loads_clone_solves_like_its_source():
    # Clones made before and after the first solve alike share the network
    # and build their own solve-order network, whose order their loads set,
    # and nothing else of a solve outlives it, so they hold the same entries
    # and solve bit for bit like their source.
    sys_, spec = ring_mesh(16, LOAD_KINDS, seed=6, level=2.0)
    early = sys_.with_loads(sys_.loads)
    first = solve_network(sys_, spec)
    late = sys_.with_loads(sys_.loads)
    assert vars(early).keys() == vars(late).keys() < vars(sys_).keys()
    for clone in (early, late):
        assert clone.network is sys_.network
        assert_same_solution(solve_network(clone, spec), first)
        assert vars(clone).keys() == vars(sys_).keys()
        assert clone.solve_order_network is not sys_.solve_order_network


def test_a_machine_only_network_certifies_in_one_iteration(fixture_path):
    # The fixture without its load bus and that bus's lines: every bus holds
    # a machine (n_l = 0), so the load-bus balance is empty, its residual 0
    # at the first iterate, and the Jacobian and its diagonal view empty.
    doc = json.loads(fixture_path.read_text())
    doc["buses"] = doc["buses"][:2]
    doc["lines"] = [line for line in doc["lines"]
                    if "b3" not in (line["from"], line["to"])]
    sys_, spec = system_from_dict(doc)
    ss = compute_steady_state(sys_, spec)
    assert (sys_.n_l, sys_.n_t) == (0, 1)
    assert ss.network.iterations == 1
    assert ss.network.residual_history == [0.0]
    report = verify_steady_state(sys_, ss)
    assert report.certificate, report.failures
    assert report.margins["residual"] < 1e-6


def test_line_currents_are_the_drops_over_the_branch_impedances(three_bus):
    # z_t i_T = v_h - v_t on every line, through the dense impedance and
    # incidence, also where parallel lines share their endpoints: the mesh's
    # first four lines are doubled by lines of other impedances.
    mesh, mesh_spec = ring_mesh(16, LOAD_KINDS, seed=8, level=2.0)
    net = mesh.network
    twin = Network(heads=np.r_[net.heads, net.heads[:4]],
                   tails=np.r_[net.tails, net.tails[:4]], c=net.c,
                   r_T=np.r_[net.r_T, 2.0 * net.r_T[:4]],
                   l_T=np.r_[net.l_T, 1.5 * net.l_T[:4]])
    doubled = assemble(list(mesh.machines), list(range(mesh.n_g)), twin,
                       loads=list(mesh.loads), bus_ids=list(mesh.bus_ids))
    for sys_, spec in (three_bus, (doubled, mesh_spec)):
        sol = solve_network(sys_, spec)
        drops = np.kron(dense_incidence(sys_.network), np.eye(2)).T @ sol.v
        Z = branch_impedance(sys_.network, spec.omega0)
        np.testing.assert_allclose(Z @ sol.i_T, drops, rtol=0,
                                   atol=1e-15 * np.max(np.abs(drops)))
    assert sol.iterations > 1


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
        i_T_star = branch_currents(sys_.network, spec.omega0, E2.T @ v)
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


def test_certificate_rejects_an_assembled_off_manifold_point(three_bus):
    # Machine recovery makes the machine blocks consistent with whatever
    # terminal quantities it is handed; an imbalanced network point is
    # still assembled, and its imbalance surfaces in the certificate's
    # node and line blocks, the line drops being the worst.
    sys_, spec = three_bus
    net = solve_network(sys_, spec)
    net.v = net.v.copy()
    net.v[2:4] *= 1.05  # push the solution off the network manifold
    recovery = recover_all(sys_, spec, net)
    ss = assemble_steady_state(sys_, net, recovery, spec.omega0)
    report = verify_steady_state(sys_, ss)
    gate = report.tolerances["residual"] * report.scale
    assert not report.certificate
    assert report.residual_blocks["nodes"] > 1e3 * gate
    assert report.margins["residual"] > 1e3
    assert "worst block: lines" in report.failures[0]


@pytest.mark.parametrize("mesh", [False, True], ids=["fixture", "mesh"])
def test_one_residual_evaluation_per_certify(three_bus, monkeypatch, mesh):
    # Compute constructs the candidate; only the certificate evaluates the
    # full-system residual, once, and reads every gate from it.
    sys_, spec = ring_mesh(16, LOAD_KINDS, seed=7) if mesh else three_bus
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return residual(*args, **kwargs)

    monkeypatch.setattr(steady_state, "residual", counting)
    report = verify_steady_state(sys_, compute_steady_state(sys_, spec))
    assert report.certificate, report.failures
    assert len(calls) == 1


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_a_nan_block_is_named_as_the_worst(fixture_path):
    # A stator inductance of 1e308 overflows the machine rows to NaN while
    # the nodes block stays at rounding: the message names the NaN block,
    # not the largest finite one.
    doc = json.loads(fixture_path.read_text())
    doc["machines"][0]["l_s"] = 1e308
    sys_, spec = system_from_dict(doc)
    report = verify_steady_state(sys_, compute_steady_state(sys_, spec))
    worst = report.failures[0].split("(worst block: ")[1]
    name, value = worst.rstrip(")").split(" = ")
    assert value == "nan" and np.isnan(report.residual_blocks[name])
    assert np.isfinite(report.residual_blocks["nodes"])


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
# Genuine steady states certify from millivolts to tens of volts, and the
# reported invariance margin (|omega0| times the pair residual) stays small.


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


def scaled_voltages(sys_, ss, factor):
    """The candidate ``ss`` with every bus voltage scaled by ``factor``."""
    x = ss.x.copy()
    x[sys_.layout.sl_v] *= factor
    return replace(ss, x=x)


@pytest.mark.parametrize("hertz", [16.7, 50.0, 60.0, 400.0, 5000.0])
@pytest.mark.parametrize("name", ["fixture", "ring24-mixed"])
def test_verdicts_at_other_frequencies(three_bus, name, hertz):
    # The mesh's line inductances and bus capacitances are those of a
    # network designed for its frequency (ring_mesh's omega0): on the
    # 314 rad/s mesh Newton does not converge at 400 Hz and above.
    omega0 = 2.0 * np.pi * hertz
    sys_, spec = (three_bus if name == "fixture" else ring_mesh(
        24, LOAD_KINDS, seed=3, omega0=omega0))
    ss = compute_steady_state(sys_, replace(spec, omega0=omega0))
    report = verify_steady_state(sys_, ss)
    assert report.certificate, report.failures
    assert max(report.margins.values()) <= 0.1
    bad = verify_steady_state(sys_, scaled_voltages(sys_, ss, 1.0 + 1e-5))
    assert not bad.certificate
    assert bad.margins["residual"] > 1.0
    if name == "fixture" and hertz == 5000.0:
        # Inside the residual gate, and certified although the reported
        # invariance margin, |omega0| times the pair residual, is above 1.
        near = verify_steady_state(sys_, scaled_voltages(sys_, ss, 1.0 + 4e-8))
        assert near.certificate, near.failures
        assert near.margins["residual"] <= 0.5 < 1.0 < near.margins[
            "invariance"]


def test_controls_fail_by_wide_margins_at_low_voltage():
    # An anisotropic load fails the rotation probe, and the residual gate
    # too: its current is not the one the point was solved for. A 1% input
    # error fails the residual gate. Each by at least 1e3 times its
    # threshold, at 0.02 V.
    sys_, spec = ring_mesh(24, LOAD_KINDS, seed=1, level=0.02)
    ss = compute_steady_state(sys_, spec)
    loads = list(sys_.loads)
    loads[next(k for k, ld in enumerate(loads) if ld.kind != "none")] = \
        AnisotropicLoad()
    bad = verify_steady_state(sys_.with_loads(loads), ss)
    assert not bad.certificate
    assert bad.margins["equivariance"] >= 1e3
    assert any("not rotation-equivariant" in f for f in bad.failures)
    assert bad.margins["residual"] >= 1e3
    assert any("worst block: nodes" in f for f in bad.failures)
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
