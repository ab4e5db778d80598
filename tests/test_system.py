from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstate.errors import LoadDomainError, ValidationError
from gridstate.frame import as_complex, block_rotation_generator, \
    machine_rotation_generator
from gridstate.identities import random_valid_params
from gridstate.loads import Load
from gridstate.machine import electrical_torque, induced_voltage
from gridstate.network import NetworkParams, Topology
from gridstate.system import (StateLayout, assemble, bus_indicator,
                              field_indicator, invariance_defect, mass_matrix,
                              residual, steady_field, stator_indicator,
                              tolerance_scale, total_energy, vector_field)

from conftest import AnisotropicLoad, ring_mesh, sample_machine, slow_two_bus
from oracles import (central_invariance_defect,
                     electrical_torque as oracle_torque,
                     induced_voltage as oracle_induced_voltage,
                     scalar_load_currents, single_machine_rhs, system_energy,
                     system_field, system_residual)


def tiny_system(load=None):
    """One machine, two buses, one line."""
    top = Topology(np.array([[1.0], [-1.0]]))
    net = NetworkParams(c=np.array([1e-3, 1e-3]), l_T=np.array([1e-2]),
                        r_T=np.array([0.5]))
    loads = [Load.none(), load if load is not None else Load.impedance(0.2, 0.0)]
    return assemble([sample_machine()], [0], top, net, loads=loads)


def random_point(sys_, rng, omega0=60.0):
    lay = sys_.layout
    x = lay.pack(
        rng.uniform(-np.pi, np.pi, sys_.n_g),
        omega0 * (1 + 0.2 * rng.uniform(-1, 1, sys_.n_g)),
        rng.uniform(-2, 2, 5 * sys_.n_g),
        rng.uniform(-3, 3, 2 * sys_.n_v),
        rng.uniform(-2, 2, 2 * sys_.n_t),
    )
    u = rng.uniform(-3, 3, lay.n_u)
    return x, u


def test_assemble_state_counts():
    assert tiny_system().n_x == 13
    sys3, _ = slow_two_bus()
    assert sys3.n_x == 13


def test_three_bus_state_count(three_bus):
    sys_, _ = three_bus
    assert sys_.n_x == 26
    assert sys_.n_g == 2 and sys_.n_l == 1


def test_assemble_rejects_bad_bus():
    top = Topology(np.array([[1.0], [-1.0]]))
    net = NetworkParams(c=np.array([1e-3, 1e-3]), l_T=np.array([1e-2]),
                        r_T=np.array([0.5]))
    with pytest.raises(ValidationError, match="nonexistent bus"):
        assemble([sample_machine()], [7], top, net)


def test_assemble_aggregates_problems():
    from dataclasses import replace
    top = Topology(np.array([[1.0], [-1.0]]))
    net = NetworkParams(c=np.array([1e-3, 1e-3]), l_T=np.array([1e-2]),
                        r_T=np.array([0.5]))
    bad = replace(sample_machine(), m=-1.0)
    with pytest.raises(ValidationError) as err:
        assemble([bad], [9], top, net)
    assert len(err.value.problems) == 2


def test_assemble_reorders_buses():
    # Machine on the second input bus: solve order must move it first.
    top = Topology(np.array([[1.0], [-1.0]]))
    net = NetworkParams(c=np.array([1e-3, 2e-3]), l_T=np.array([1e-2]),
                        r_T=np.array([0.5]))
    sys_ = assemble([sample_machine()], [1], top, net,
                    bus_ids=["load", "gen"])
    assert sys_.bus_ids == ("gen", "load")
    assert sys_.input_position == (1, 0)
    np.testing.assert_array_equal(sys_.network.c, [2e-3, 1e-3])
    np.testing.assert_array_equal(sys_.topology.incidence, [[-1.0], [1.0]])


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_layout_pack_split_roundtrip(seed):
    rng = np.random.default_rng(seed)
    lay = StateLayout(2, 3, 3)
    x = rng.standard_normal(lay.n_x)
    theta, omega, i, v, i_T = lay.split(x)
    np.testing.assert_array_equal(lay.pack(theta, omega, i, v, i_T), x)


def test_indicator_identities():
    for n_g, n_v in ((1, 2), (2, 3), (3, 7)):
        Jg = machine_rotation_generator(n_g)
        Jv = block_rotation_generator(n_v)
        IvT = bus_indicator(n_g, n_v).T
        np.testing.assert_array_equal(IvT @ Jv, Jg @ IvT)
        np.testing.assert_array_equal(Jg @ field_indicator(n_g),
                                      np.zeros((5 * n_g, n_g)))
        # stator selector transposed recovers the stator currents
        i = np.arange(5.0 * n_g)
        np.testing.assert_array_equal(
            stator_indicator(n_g).T @ i,
            np.concatenate([i[5 * k:5 * k + 2] for k in range(n_g)]))


def test_vector_field_zero_at_origin():
    sys_ = tiny_system()
    x = np.zeros(sys_.n_x)
    u = np.zeros(sys_.layout.n_u)
    np.testing.assert_array_equal(vector_field(sys_, x, u), np.zeros(sys_.n_x))


def monolithic_field(sys_, x, u):
    """Oracle: assemble the bracket with dense indicator/incidence matrices
    and solve through the mass matrix in one shot."""
    lay = sys_.layout
    theta, omega, i_flat, v, i_T = lay.split(x)
    tau_m, v_f = lay.split_input(u)
    from gridstate.machine import electrical_torque, induced_voltage

    n_g = sys_.n_g
    tau_e = np.array([electrical_torque(sys_.machines[k], theta[k],
                                        i_flat[5 * k:5 * k + 5])
                      for k in range(n_g)])
    v_ind = np.concatenate([
        induced_voltage(sys_.machines[k], theta[k], omega[k],
                        i_flat[5 * k:5 * k + 5]) for k in range(n_g)])
    R = np.concatenate([p.resistance_diag() for p in sys_.machines])
    IvT = bus_indicator(n_g, sys_.n_v).T
    If = field_indicator(n_g)
    i_l = sys_.load_currents(v)
    E2 = sys_.incidence2
    RT2 = np.repeat(sys_.network.r_T, 2)
    bracket = np.concatenate([
        omega,
        -np.array([p.d for p in sys_.machines]) * omega - tau_e + tau_m,
        -R * i_flat + IvT @ v + If @ v_f - v_ind,
        -IvT.T @ i_flat - E2 @ i_T - i_l,
        -RT2 * i_T + E2.T @ v,
    ])
    return np.linalg.solve(mass_matrix(sys_, x), bracket)


def test_vector_field_matches_monolithic_path(three_bus):
    sys_, _ = three_bus
    rng = np.random.default_rng(40)
    for _ in range(10):
        x, u = random_point(sys_, rng)
        fast = vector_field(sys_, x, u)
        slow = monolithic_field(sys_, x, u)
        scale = max(1.0, np.max(np.abs(slow)))
        np.testing.assert_allclose(fast, slow, atol=1e-12 * scale)


def test_vector_field_matches_per_machine_module(three_bus):
    sys_, _ = three_bus
    rng = np.random.default_rng(41)
    x, u = random_point(sys_, rng)
    full = vector_field(sys_, x, u)
    lay = sys_.layout
    for k in range(sys_.n_g):
        ref = single_machine_rhs(sys_, k, x, u)
        assert full[lay.sl_theta][k] == pytest.approx(ref[0], rel=1e-12)
        assert full[lay.sl_omega][k] == pytest.approx(ref[1], rel=1e-12)
        np.testing.assert_allclose(full[lay.sl_i][5 * k:5 * k + 5], ref[2:],
                                   rtol=1e-9, atol=1e-12)


def machine_chain(machines, rng):
    """The machines on the first buses of a path, a loaded bus at its end."""
    n_v = len(machines) + 1
    E = np.zeros((n_v, n_v - 1))
    for t in range(n_v - 1):
        E[t, t], E[t + 1, t] = 1.0, -1.0
    net = NetworkParams(c=rng.uniform(1e-4, 1e-3, n_v),
                        l_T=rng.uniform(2e-3, 4e-3, n_v - 1),
                        r_T=rng.uniform(0.3, 0.5, n_v - 1))
    loads = [Load.none()] * (n_v - 1) + [Load.constant_power(0.5, 0.2)]
    return assemble(machines, list(range(len(machines))), Topology(E), net,
                    loads=loads)


@pytest.mark.parametrize("salient", [True, False])
@pytest.mark.parametrize("n_g", [1, 2, 5])
def test_rotor_frame_kernel_matches_inductance_oracle(n_g, salient):
    rng = np.random.default_rng(60 + 2 * n_g + salient)
    machines = [random_valid_params(rng) for _ in range(n_g)]
    if not salient:
        machines = [replace(p, l_sa=0.0) for p in machines]
    sys_ = machine_chain(machines, rng)
    lay = sys_.layout

    def close(got, want):
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    for turns in (0, 1, -3, 8, -25):
        x, u = random_point(sys_, rng, omega0=314.0)
        x[lay.sl_theta] += 2.0 * np.pi * turns
        close(vector_field(sys_, x, u), system_field(sys_, x, u))
        close(residual(sys_, x, u, 314.0), system_residual(sys_, x, u, 314.0))
        close(total_energy(sys_, x), system_energy(sys_, x))
        theta, omega, i_flat, _, _ = lay.split(x)
        for k, p in enumerate(machines):
            i = i_flat[5 * k:5 * k + 5]
            close(electrical_torque(p, theta[k], i),
                  oracle_torque(p, theta[k], i))
            close(induced_voltage(p, theta[k], omega[k], i),
                  oracle_induced_voltage(p, theta[k], omega[k], i))


def test_steady_field_cases(three_bus):
    sys_, _ = three_bus
    rng = np.random.default_rng(42)
    x, _ = random_point(sys_, rng)
    np.testing.assert_array_equal(steady_field(sys_, x, 0.0),
                                  np.zeros(sys_.n_x))

    lay = sys_.layout
    x2 = x.copy()
    x2[lay.sl_i] = np.tile([0.0, 0.0, 1.0, 0.0, 0.0], sys_.n_g)
    f = steady_field(sys_, x2, 10.0)
    np.testing.assert_array_equal(f[lay.sl_i], np.zeros(5 * sys_.n_g))

    x3 = np.zeros(sys_.n_x)
    x3[lay.sl_v.start:lay.sl_v.start + 2] = [1.0, 0.0]
    f3 = steady_field(sys_, x3, 1.0)
    np.testing.assert_array_equal(f3[lay.sl_v][:2], [0.0, 1.0])


def test_residual_frequency_block_exact(three_bus):
    sys_, _ = three_bus
    rng = np.random.default_rng(43)
    x, u = random_point(sys_, rng)
    omega0 = 100.0
    rho = residual(sys_, x, u, omega0)
    lay = sys_.layout
    np.testing.assert_array_equal(rho[lay.sl_theta],
                                  omega0 - x[lay.sl_omega])


def test_residual_is_mass_matrix_times_field_gap(three_bus):
    sys_, _ = three_bus
    rng = np.random.default_rng(44)
    for _ in range(10):
        x, u = random_point(sys_, rng)
        omega0 = rng.uniform(-300, 300)
        rho = residual(sys_, x, u, omega0)
        gap = steady_field(sys_, x, omega0) - vector_field(sys_, x, u)
        alt = mass_matrix(sys_, x) @ gap
        scale = max(1.0, np.max(np.abs(rho)))
        np.testing.assert_allclose(rho, alt, atol=1e-10 * scale)


def test_invariance_defect_low_frequency_bound():
    # At a certified low-frequency steady state the defect is far below the
    # documented bound.
    from gridstate.steady_state import compute_steady_state
    sys_, spec = slow_two_bus(omega0=5.0)
    ss = compute_steady_state(sys_, spec)
    scale = tolerance_scale(ss.x, ss.u)
    assert invariance_defect(sys_, ss.x, ss.u, ss.omega0) \
        <= 1e-5 * scale


def test_invariance_defect_is_exact_at_the_fixture(certified, three_bus):
    # With shipped loads the defect is omega0 times the largest residual
    # entry on the stator, bus and line pairs, exactly: the rotation only
    # permutes entries and flips signs. At the certified fixture that is
    # at least 1e8 times inside the gate.
    sys_, _ = three_bus
    ss = certified
    lay = sys_.layout
    rho = residual(sys_, ss.x, ss.u, ss.omega0)
    pairs = np.concatenate([rho[lay.sl_i].reshape(-1, 5)[:, :2].ravel(),
                            rho[lay.sl_v], rho[lay.sl_iT]])
    defect = invariance_defect(sys_, ss.x, ss.u, ss.omega0)
    assert defect == abs(ss.omega0) * float(np.max(np.abs(pairs)))
    assert defect == invariance_defect(sys_, ss.x, None, ss.omega0, rho)
    assert defect <= 1e-8 * 1e-5 * tolerance_scale(ss.x, ss.u)


@pytest.mark.parametrize("mesh", ["fixture", "ring"])
@pytest.mark.parametrize("anisotropic", [False, True])
@pytest.mark.parametrize("perturb", [0.0, 0.01])
def test_invariance_defect_matches_central_difference(three_bus, mesh,
                                                      anisotropic, perturb):
    # The identity holds at any state, not only at steady states. As h
    # shrinks the oracle's O(h^2) error falls by 100 per decade until
    # rounding, and the gap ends far below the gate.
    from gridstate.steady_state import compute_steady_state
    sys_, spec = three_bus if mesh == "fixture" else ring_mesh(
        8, ["impedance", "current", "power"], seed=3, level=2.0)
    ss = compute_steady_state(sys_, spec)
    if anisotropic:
        sys_ = sys_.with_loads([AnisotropicLoad() if ld.kind != "none"
                                else ld for ld in sys_.loads])
    rng = np.random.default_rng(71)
    x = ss.x * (1.0 + perturb * rng.standard_normal(ss.x.shape))
    gate = 1e-5 * tolerance_scale(x, ss.u)
    exact = invariance_defect(sys_, x, ss.u, ss.omega0)
    gaps = [abs(exact - central_invariance_defect(sys_, x, ss.u, ss.omega0,
                                                  h)) / gate
            for h in (1e-4, 1e-5, 1e-6, 1e-7)]
    for wide, narrow in zip(gaps, gaps[1:]):
        assert narrow <= max(wide / 50.0, 1e-5), gaps
    assert gaps[-1] <= 1e-3, gaps
    if anisotropic:
        assert exact >= 1e3 * gate


def test_invariance_defect_flags_anisotropic_load(certified, three_bus):
    sys_, _ = three_bus
    ss = certified
    bad = sys_.with_loads([sys_.loads[0], sys_.loads[1], AnisotropicLoad()])
    scale = tolerance_scale(ss.x, ss.u)
    assert invariance_defect(bad, ss.x, ss.u, ss.omega0) \
        >= 1e-2 * scale


def test_load_currents_accept_int_float32_and_strided_voltages():
    # The complex view of the kernel must see the voltages' values, not
    # their bytes: integer, single-precision and non-contiguous inputs give
    # the currents of the same float64 voltages.
    from gridstate.network import admittance, line_admittance
    sys_ = tiny_system(Load.constant_power(1.0, 0.5))
    v = np.array([1.0, 0.0, 2.0, -3.0])
    want = sys_.load_currents(v)
    lines = line_admittance(sys_.network, sys_.topology, 60.0)
    fortran = np.asfortranarray(np.stack([v, 2.0 * v, v]))
    for w in (v.astype(np.int64), v.astype(np.float32), fortran[2],
              np.stack([v, v], axis=1)[:, 0]):
        np.testing.assert_array_equal(sys_.load_currents(w), want)
        np.testing.assert_array_equal(
            admittance(sys_.network, sys_.load_bank.admittance(as_complex(w)),
                       60.0, lines),
            admittance(sys_.network, sys_.load_bank.admittance(as_complex(v)),
                       60.0, lines))
    x, u = random_point(sys_, np.random.default_rng(46))
    x[sys_.layout.sl_v] = v
    strided = np.stack([x, x], axis=1)[:, 1]
    np.testing.assert_array_equal(residual(sys_, strided, u, 60.0),
                                  residual(sys_, x, u, 60.0))


def test_load_subclass_is_custom_and_named_on_domain_error():
    # A subclass may override ``current``, so it is called on its own; an
    # inherited floor violation still names the bus, as for bank loads.
    class Tagged(Load):
        pass

    sys_ = tiny_system()
    ld = Tagged("power", (1.0, -0.5), 2, 0.5)
    bad = sys_.with_loads([Load.none(), ld])
    assert bad.load_bank.custom == [(1, ld)]
    v = np.array([1.0, 0.0, 2.0, -3.0])
    plain = sys_.with_loads([Load.none(), Load.constant_power(1.0, 0.5, 0.5)])
    np.testing.assert_allclose(bad.load_currents(v), plain.load_currents(v),
                               rtol=1e-14, atol=0.0)
    with pytest.raises(LoadDomainError,
                       match=f"bus {sys_.bus_ids[1]!r}") as info:
        bad.load_currents(np.array([1.0, 0.0, 0.1, 0.0]))
    assert info.value.bus == sys_.bus_ids[1]


def test_total_energy_recomputed():
    sys_ = tiny_system()
    rng = np.random.default_rng(45)
    x, _ = random_point(sys_, rng)
    lay = sys_.layout
    theta, omega, i, v, i_T = lay.split(x)
    from gridstate.machine import inductance_matrix
    e = 0.5 * i @ inductance_matrix(sys_.machines[0], theta[0]) @ i
    e += 0.5 * sys_.machines[0].m * omega[0] ** 2
    e += 0.5 * np.sum(np.repeat(sys_.network.c, 2) * v**2)
    e += 0.5 * np.sum(np.repeat(sys_.network.l_T, 2) * i_T**2)
    assert total_energy(sys_, x) == pytest.approx(e, rel=1e-12)


def test_tolerance_scale_floor():
    assert tolerance_scale(np.zeros(3), np.zeros(2)) == 1.0
    assert tolerance_scale(np.array([0.5, -7.0]), np.zeros(2)) == 7.0


LOAD_KINDS = ("none", "impedance", "current", "power")


def chain_system(kinds, machine_bus, rng, floor):
    """One machine on a chain of buses carrying loads of the given kinds,
    with file ids 'n0', 'n1', ... in chain order."""
    n = len(kinds)
    E = np.zeros((n, n - 1))
    for t in range(n - 1):
        E[t, t], E[t + 1, t] = 1.0, -1.0
    net = NetworkParams(c=rng.uniform(1e-4, 1e-3, n),
                        l_T=rng.uniform(1e-3, 5e-3, n - 1),
                        r_T=rng.uniform(0.1, 1.0, n - 1))
    make = {"none": lambda g, b: Load.none(),
            "impedance": Load.impedance,
            "current": lambda g, b: Load.constant_current(g, b, floor),
            "power": lambda g, b: Load.constant_power(g, b, floor)}
    loads = [make[kind](rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0))
             for kind in kinds]
    return assemble([sample_machine()], [machine_bus], Topology(E), net,
                    loads=loads, bus_ids=[f"n{k}" for k in range(n)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(LOAD_KINDS), min_size=2, max_size=10),
       st.floats(min_value=-2.0, max_value=2.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(["impedance", "none", "impedance"], 0.0, 7)  # constant admittance
def test_load_currents_match_scalar_oracle(kinds, log_scale, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    sys_ = chain_system(kinds, int(rng.integers(len(kinds))), rng,
                        floor=1e-3 * scale)
    mags = scale * rng.uniform(0.5, 2.0, sys_.n_v)
    angles = rng.uniform(-np.pi, np.pi, sys_.n_v)
    v = np.empty(2 * sys_.n_v)
    v[0::2], v[1::2] = mags * np.cos(angles), mags * np.sin(angles)

    got = sys_.load_currents(v)
    want = scalar_load_currents(sys_.loads, v, sys_.bus_ids)
    per_bus = np.hypot(want[0::2], want[1::2]).repeat(2)
    assert np.all(np.abs(got - want) <= 1e-14 * per_bus)

    # One bus below its floor: both paths name it by its file id.
    floored = [k for k, ld in enumerate(sys_.loads) if ld.v_min > 0.0]
    if floored:
        k = floored[int(rng.integers(len(floored)))]
        low = v.copy()
        low[2 * k:2 * k + 2] *= 0.5 * sys_.loads[k].v_min / mags[k]
        for evaluate in (sys_.load_currents, lambda w: scalar_load_currents(
                sys_.loads, w, sys_.bus_ids)):
            with pytest.raises(LoadDomainError,
                               match=f"bus {sys_.bus_ids[k]!r}") as info:
                evaluate(low)
            assert info.value.bus == sys_.bus_ids[k]

    # A custom load swapped in changes the node rows of the residual by
    # exactly the oracle's current difference, and nothing else.
    bank = {name: getattr(sys_.load_bank, name).copy()
            for name in ("y", "k", "v_min")}
    k = int(rng.integers(sys_.n_v))
    swapped = list(sys_.loads)
    swapped[k] = AnisotropicLoad(*rng.uniform(0.5, 2.0, 2))
    bad = sys_.with_loads(swapped)
    x, u = random_point(sys_, rng)
    x[sys_.layout.sl_v] = v
    lay = sys_.layout
    rho, rho_bad = residual(sys_, x, u, 60.0), residual(bad, x, u, 60.0)
    delta = scalar_load_currents(swapped, v) - scalar_load_currents(
        sys_.loads, v)
    gauge = np.max(np.abs(rho[lay.sl_v])) + np.max(np.abs(delta))
    assert np.max(np.abs(rho_bad[lay.sl_v] - rho[lay.sl_v] - delta)) \
        <= 1e-14 * gauge
    keep = np.ones(lay.n_x, dtype=bool)
    keep[lay.sl_v] = False
    np.testing.assert_array_equal(rho_bad[keep], rho[keep])
    np.testing.assert_array_equal(bad.load_currents(v)[2 * k:2 * k + 2],
                                  swapped[k].current(v[2 * k:2 * k + 2]))
    for name, before in bank.items():
        np.testing.assert_array_equal(getattr(sys_.load_bank, name), before)
    np.testing.assert_array_equal(sys_.load_currents(v), got)
