import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridstate.system
from gridstate.errors import LoadDomainError, ValidationError
from gridstate.fileio import load_system_file
from gridstate.frame import as_complex, real_blocks
from gridstate.identities import random_valid_params, run_identity_suite
from gridstate.loads import Load
from gridstate.network import Network
from gridstate.simulate import SimConfig, drift_metrics, simulate
from gridstate.steady_state import compute_steady_state, verify_steady_state
from gridstate.system import (StateLayout, assemble, invariance_defect,
                              residual, steady_field, tolerance_scale,
                              total_energy, vector_field)

from conftest import AnisotropicLoad, ring_mesh, sample_machine, slow_two_bus
from oracles import (block_rotation_generator, bus_indicator,
                     central_invariance_defect, copy_loads_field,
                     custom_invariance_defect,
                     dense_field_rows,
                     dense_incidence,
                     dense_network_field, electrical_torque,
                     field_indicator, induced_voltage, load_current,
                     machine_rotation_generator, mass_matrix, OracleLoad,
                     reference_assemble, scalar_load_currents,
                     single_machine_rhs,
                     stator_indicator, system_energy, system_field,
                     system_residual)


def tiny_system(load=None):
    """One machine, two buses, one line."""
    net = Network(heads=[0], tails=[1], c=np.array([1e-3, 1e-3]),
                  r_T=np.array([0.5]), l_T=np.array([1e-2]))
    loads = [Load.none(), load if load is not None else Load.impedance(0.2, 0.0)]
    return assemble([sample_machine()], [0], net, loads=loads)


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
    net = Network(heads=[0], tails=[1], c=np.array([1e-3, 1e-3]),
                  r_T=np.array([0.5]), l_T=np.array([1e-2]))
    with pytest.raises(ValidationError, match="nonexistent bus"):
        assemble([sample_machine()], [7], net)


def test_assemble_aggregates_problems():
    from dataclasses import replace
    net = Network(heads=[0], tails=[1], c=np.array([1e-3, 1e-3]),
                  r_T=np.array([0.5]), l_T=np.array([1e-2]))
    bad = replace(sample_machine(), m=-1.0)
    with pytest.raises(ValidationError) as err:
        assemble([bad], [9], net)
    assert len(err.value.problems) == 2


def test_assemble_reorders_buses():
    # Machine on the second input bus: solve order must move it first.
    net = Network(heads=[0], tails=[1], c=np.array([1e-3, 2e-3]),
                  r_T=np.array([0.5]), l_T=np.array([1e-2]))
    sys_ = assemble([sample_machine()], [1], net, bus_ids=["load", "gen"])
    assert sys_.bus_ids == ("gen", "load")
    assert sys_.input_position == (1, 0)
    np.testing.assert_array_equal(sys_.network.c, [2e-3, 1e-3])
    np.testing.assert_array_equal(sys_.network.heads, [1])
    np.testing.assert_array_equal(sys_.network.tails, [0])


def assembly_inputs(sys_):
    """The arguments of the assemble call that built ``sys_``, in the
    user's bus order, read back through its input positions."""
    back = np.argsort(sys_.input_position)
    net, position = sys_.network, np.array(sys_.input_position)
    return (sys_.machines, list(sys_.input_position[:sys_.n_g]),
            Network(heads=position[net.heads], tails=position[net.tails],
                    c=net.c[back], r_T=net.r_T, l_T=net.l_T),
            [sys_.loads[k] for k in back], [sys_.bus_ids[k] for k in back])


def machines_on_last_buses():
    """A 10-bus ring whose three machines sit on its last buses, listed out
    of bus order, with loads of every kind on the other buses."""
    n = 10
    heads = list(range(n)) + [0, 8]
    tails = [(t + 1) % n for t in range(n)] + [5, 2]
    rng = np.random.default_rng(40)
    c, l_T, r_T = (rng.uniform(2e-4, 2e-3, n),
                   rng.uniform(2.5e-3, 3.5e-3, n + 2),
                   rng.uniform(0.3, 0.5, n + 2))
    net = Network(heads=heads, tails=tails, c=c, r_T=r_T, l_T=l_T)
    loads = [Load.impedance(0.05, 0.01), Load.constant_current(0.4, 0.1),
             Load.constant_power(4.0, 1.0), Load.none()] * 2 + [Load.none()] * 2
    machines = [sample_machine(True), sample_machine(False), sample_machine()]
    return assemble(machines, [9, 7, 8], net, loads=loads,
                    bus_ids=[f"b{k}" for k in range(n)])


@pytest.mark.parametrize("case", ["fixture", "last-buses"] + [
    f"ring{n}-{kind}" for n in (8, 16, 32, 64)
    for kind in ("impedance", "current", "power", "mixed")])
def test_assemble_matches_revalidating_reference(three_bus, case):
    # Relabelling the checked topology and network, and the stacked
    # machine check, give the arrays of checking everything again.
    if case == "fixture":
        sys_ = three_bus[0]
    elif case == "last-buses":
        sys_ = machines_on_last_buses()
    else:
        n, kind = case[4:].split("-")
        kinds = ("impedance", "current", "power") if kind == "mixed" \
            else (kind,)
        sys_ = ring_mesh(int(n), kinds, seed=int(n))[0]
    args = assembly_inputs(sys_)
    new, ref = assemble(*args), reference_assemble(*args)
    for name in ("mass", "_L0", "_field_op", "_residual_op", "_turn",
                 "_inv_m"):
        assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
    for name in ("heads", "tails", "c"):
        assert getattr(new.network, name).tobytes() == \
            getattr(ref.network, name).tobytes(), name
    for name in ("y", "k", "v_min"):
        assert getattr(new.load_bank, name).tobytes() == \
            getattr(ref.load_bank, name).tobytes(), name
    assert new.load_bank.constant == ref.load_bank.constant
    assert new.load_bank._named == ref.load_bank._named
    assert new.bus_ids == ref.bus_ids == sys_.bus_ids
    assert new.input_position == ref.input_position == sys_.input_position
    assert all(type(k) is int for k in new.input_position)


def test_assemble_reports_every_bad_machine():
    # A sign violation (which masks the same machine's indefinite L0),
    # a negative saliency, an indefinite L0 and a machine on a missing bus:
    # every problem, in machine order, with the messages the one-machine
    # checks give.
    _, _, net, _, _ = assembly_inputs(machines_on_last_buses())
    good = sample_machine()
    machines = [replace(good, r_f=-0.06, l_sa=good.l_s),
                replace(good, l_sa=-1e-4), good, replace(good, l_sa=good.l_s),
                sample_machine(False)]
    expected = [
        "machine 1: r_f must be > 0, got -0.06",
        "machine 2: l_sa must be >= 0, got -0.0001",
        "machine 4: inductance matrix not positive definite at "
        "theta=0.000000 (smallest eigenvalue -3.863e-04)",
        "machine 5 attached to nonexistent bus index 12",
    ]
    for build in (assemble, reference_assemble):
        with pytest.raises(ValidationError) as err:
            build(machines, [5, 1, 2, 3, 12], net)
        assert err.value.problems == expected


def test_parse_validates_machines_once(fixture_path, monkeypatch):
    # The benchmark's machine.validate_params span wraps this module
    # global: one call per parsed system, for all its machines.
    calls = []
    original = gridstate.system.validate_params

    def counted(p, L0=None):
        calls.append(np.shape(p.l_s))
        return original(p, L0)
    monkeypatch.setattr(gridstate.system, "validate_params", counted)
    sys_, _ = load_system_file(fixture_path)
    assert calls == [(sys_.n_g,)]


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
    E2 = real_blocks(dense_incidence(sys_.network))
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


FIELD_CASES = ["fixture", "ring24-mixed", "ring24-custom", "ring160"]


def field_case(three_bus, case):
    """The fixture, seeded ring meshes, and a with_loads copy of the mixed
    mesh whose current loads are custom loads and whose first machine bus
    draws a current load: impedance, k > 0 and custom loads side by side."""
    if case == "fixture":
        return three_bus[0]
    if case == "ring160":
        return ring_mesh(160, ("impedance",), seed=4)[0]
    sys_ = ring_mesh(24, ("impedance", "current", "power"), seed=3)[0]
    if case == "ring24-mixed":
        return sys_
    loads = [OracleLoad(ld) if ld.kind == "current" else ld
             for ld in sys_.loads]
    loads[0] = Load.constant_current(0.05, 0.02)
    return sys_.with_loads(loads)


@pytest.mark.parametrize("case", FIELD_CASES)
def test_fused_field_rows_are_the_dense_linear_part(three_bus, case):
    # Every row has an entry (reduceat would return x[start] for an empty
    # one), and scattered back to a dense matrix the rows are, entry for
    # entry, the linear part written on the dense incidence, the impedance
    # loads' blocks included.
    sys_ = field_case(three_bus, case)
    cols, starts, _, values = sys_.linear_rows
    assert starts[0] == 0 and np.all(np.diff(starts) > 0)
    rows = np.repeat(np.arange(sys_.n_x), np.diff(starts, append=len(cols)))
    dense = np.zeros((sys_.n_x, sys_.n_x))
    np.add.at(dense, (rows, cols), values)
    np.testing.assert_array_equal(dense, dense_field_rows(sys_))


@pytest.mark.parametrize("case", FIELD_CASES)
@pytest.mark.parametrize("shape", [(), (5,)])
def test_vector_field_matches_dense_network_rows(three_bus, case, shape):
    # The oracle evaluates every load through load_currents; the field only
    # the k > 0 and custom ones, its rows holding the impedance loads.
    sys_ = field_case(three_bus, case)
    rng = np.random.default_rng(45)
    points = [random_point(sys_, rng) for _ in range(int(np.prod(shape)))]
    x = np.reshape([p[0] for p in points], shape + (sys_.n_x,))
    u = points[0][1]
    want = dense_network_field(sys_, x, u)
    np.testing.assert_allclose(vector_field(sys_, x, u), want, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("case", FIELD_CASES)
@pytest.mark.parametrize("shape", [(), (5,)])
def test_vector_field_equals_its_loads_from_a_copy(three_bus, case, shape):
    # The field evaluates its k > 0 and custom loads on the system's own
    # bank, less the impedance loads its rows hold; the reference takes
    # them from a copy of the system that holds only them. Bit for bit.
    sys_ = field_case(three_bus, case)
    rng = np.random.default_rng(47)
    points = [random_point(sys_, rng) for _ in range(int(np.prod(shape)))]
    x = np.reshape([p[0] for p in points], shape + (sys_.n_x,))
    u = points[0][1]
    np.testing.assert_array_equal(vector_field(sys_, x, u),
                                  copy_loads_field(sys_, x, u))


def test_no_system_is_built_after_assembly(fixture_path, monkeypatch):
    # Certify, simulate, the drift check and the identity suite run on the
    # assembled system itself: none of them builds another PowerSystem.
    cases = [load_system_file(fixture_path),
             ring_mesh(24, ("impedance", "current", "power"), seed=3)]
    init, built = gridstate.system.PowerSystem.__init__, []

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(gridstate.system.PowerSystem, "__init__", counted)
    for sys_, spec in cases:
        ss = compute_steady_state(sys_, spec)
        assert verify_steady_state(sys_, ss).certificate
        traj = simulate(sys_, ss.x, ss.u, SimConfig(dt=1e-5, t_end=1e-4))
        drift_metrics(sys_, traj, ss.x, ss.omega0)
        run_identity_suite(sys_, n_samples=20, seed=0)
    assert built == []


def test_vector_field_runs_without_the_dense_incidence():
    # The field reads its network rows from the linear rows it shares with
    # the residual; no incidence, dense or edge-list, is kept beside them.
    # The rows hold the impedance loads, so a load-swapped copy made once
    # the rows exist builds its own: without loads those of a system
    # assembled without loads, with the same loads the original's.
    sys_, _ = ring_mesh(24, ("impedance", "current", "power"), seed=3)
    clone = sys_.with_loads(sys_.loads)
    x, u = random_point(sys_, np.random.default_rng(46))
    np.testing.assert_array_equal(vector_field(clone, x, u),
                                  vector_field(sys_, x, u))
    unloaded = assemble(list(sys_.machines), list(range(sys_.n_g)),
                        sys_.network)
    for copy, want in ((sys_.with_loads([Load.none()] * sys_.n_v), unloaded),
                       (sys_.with_loads(sys_.loads), sys_)):
        for got, rows in zip(copy.linear_rows, want.linear_rows):
            np.testing.assert_array_equal(got, rows)


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
    c, l_T, r_T = (rng.uniform(1e-4, 1e-3, n_v),
                   rng.uniform(2e-3, 4e-3, n_v - 1),
                   rng.uniform(0.3, 0.5, n_v - 1))
    net = Network(heads=np.arange(n_v - 1), tails=np.arange(1, n_v), c=c,
                  r_T=r_T, l_T=l_T)
    loads = [Load.none()] * (n_v - 1) + [Load.constant_power(0.5, 0.2)]
    return assemble(machines, list(range(len(machines))), net, loads=loads)


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


@pytest.mark.parametrize("case", ["fixture", "ring24-mixed", "ring160-mixed"])
def test_residual_matches_dense_oracle_on_rk4_stacks(three_bus, case):
    # The edge-list residual against the oracle's dense incidence products
    # and per-machine L(theta), state by state: on a 401-state RK4 stack
    # from the steady state and on seeded random states around it, as
    # one stack and as single states, within 1e-15 of tolerance_scale.
    sys_, spec = three_bus if case == "fixture" else ring_mesh(
        int(case[4:-6]), ("impedance", "current", "power"), seed=3)
    ss = compute_steady_state(sys_, spec)
    traj = simulate(sys_, ss.x, ss.u, SimConfig(dt=1e-5, t_end=4e-3))
    rng = np.random.default_rng(47)
    for x in (traj.states, ss.x + rng.uniform(-1.0, 1.0, (40, sys_.n_x))):
        stacked = residual(sys_, x, ss.u, ss.omega0)
        for k, x_k in enumerate(x):
            want = system_residual(sys_, x_k, ss.u, ss.omega0)
            bound = 1e-15 * tolerance_scale(x_k, ss.u)
            for got in (stacked[k], residual(sys_, x_k, ss.u, ss.omega0)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=bound)
    assert len(traj.states) == 401


def held_bytes(sys_):
    """Bytes of the arrays a system holds: its own, its layout's, machine
    constants', network's and load bank's, and its linear rows."""
    owners = (vars(sys_), vars(sys_.layout), vars(sys_.params),
              vars(sys_.network), vars(sys_.load_bank),
              dict(enumerate(sys_.linear_rows)))
    return sum(a.nbytes for owner in owners for a in owner.values()
               if isinstance(a, np.ndarray))


def test_a_2560_bus_system_holds_linear_memory():
    # Assembly and one field, residual and invariance defect at 2560 buses
    # stay far below one n_v x n_t array (the dense pair incidence alone
    # was 262 MB), in peak traced memory and in the arrays the system keeps.
    tracemalloc.start()
    try:
        sys_, _ = ring_mesh(2560, ("impedance", "current", "power"))
        x, u = random_point(sys_, np.random.default_rng(48), omega0=314.0)
        vector_field(sys_, x, u)
        rho = residual(sys_, x, u, 314.0)
        invariance_defect(sys_, x, u, 314.0, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 16e6  # a quarter of one n_v x n_t float array
    assert peak < bound and held_bytes(sys_) < bound
    assert sys_.n_v * sys_.n_t * 8 > 4 * bound


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
    # rounding, and the gap ends far below 1e-5 * scale. With an
    # anisotropic load the package's defect leaves out the load's
    # commutator with rotations (the certificate probes that load by
    # rotation), so the oracle that adds it on each custom bus pair is held
    # against the difference instead.
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
    exact = (custom_invariance_defect if anisotropic else invariance_defect)(
        sys_, x, ss.u, ss.omega0)
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


@pytest.mark.parametrize("name", ["fixture", "ring24-mixed"])
def test_wrapped_shipped_loads_read_the_shipped_invariance(three_bus, name):
    # The oracle's custom path is the shipped path with each custom bus
    # pair's entries replaced by |J rho_k + commutator|. An empty load's
    # commutator is exactly 0, so wrapping it changes no bit at any state;
    # wrapping every load changes none at states off the steady state,
    # where the largest entry sits elsewhere, and at the steady state only
    # by the commutator's rounding, far below 1e-5 * scale. The package
    # reads the pair entries alone, so wrapping changes none of its bits.
    sys_, spec = three_bus if name == "fixture" else ring_mesh(
        24, ("impedance", "current", "power"), seed=3)
    ss = compute_steady_state(sys_, spec)
    empty = sys_.with_loads([OracleLoad(ld) if ld.kind == "none" else ld
                             for ld in sys_.loads])
    every = sys_.with_loads([OracleLoad(ld) for ld in sys_.loads])
    assert len(empty.load_bank.custom) >= sys_.n_g
    assert len(every.load_bank.custom) == sys_.n_v
    rng = np.random.default_rng(1)
    for spread in (0.0, 1e-2, 0.3):
        x = ss.x * (1.0 + spread * rng.standard_normal(ss.x.shape))
        shipped = invariance_defect(sys_, x, ss.u, ss.omega0)
        assert invariance_defect(every, x, ss.u, ss.omega0) == shipped
        assert custom_invariance_defect(sys_, x, ss.u, ss.omega0) == shipped
        assert custom_invariance_defect(empty, x, ss.u, ss.omega0) == shipped
        wrapped = custom_invariance_defect(every, x, ss.u, ss.omega0)
        if spread:
            assert wrapped == shipped
        else:
            gate = 1e-5 * tolerance_scale(x, ss.u)
            assert abs(wrapped - shipped) <= 1e-5 * gate


def test_load_currents_accept_int_float32_and_strided_voltages():
    # The complex view of the kernel must see the voltages' values, not
    # their bytes: integer, single-precision and non-contiguous inputs give
    # the currents of the same float64 voltages.
    from gridstate.network import admittance
    sys_ = tiny_system(Load.constant_power(1.0, 0.5))
    v = np.array([1.0, 0.0, 2.0, -3.0])
    want = sys_.load_currents(v)
    fortran = np.asfortranarray(np.stack([v, 2.0 * v, v]))
    for w in (v.astype(np.int64), v.astype(np.float32), fortran[2],
              np.stack([v, v], axis=1)[:, 0]):
        np.testing.assert_array_equal(sys_.load_currents(w), want)
        np.testing.assert_array_equal(
            admittance(sys_.network, sys_.load_bank.admittance(as_complex(w)),
                       60.0),
            admittance(sys_.network, sys_.load_bank.admittance(as_complex(v)),
                       60.0))
    x, u = random_point(sys_, np.random.default_rng(46))
    x[sys_.layout.sl_v] = v
    strided = np.stack([x, x], axis=1)[:, 1]
    np.testing.assert_array_equal(residual(sys_, strided, u, 60.0),
                                  residual(sys_, x, u, 60.0))


def test_load_subclass_is_custom_and_named_on_domain_error():
    # A subclass is a custom load with its own ``current``, called on its
    # own; its floor violation still names the bus, as for bank loads.
    class Tagged(Load):
        def current(self, v):
            return load_current(self, v)

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
    c, l_T, r_T = (rng.uniform(1e-4, 1e-3, n), rng.uniform(1e-3, 5e-3, n - 1),
                   rng.uniform(0.1, 1.0, n - 1))
    net = Network(heads=np.arange(n - 1), tails=np.arange(1, n), c=c, r_T=r_T,
                  l_T=l_T)
    make = {"none": lambda g, b: Load.none(),
            "impedance": Load.impedance,
            "current": lambda g, b: Load.constant_current(g, b, floor),
            "power": lambda g, b: Load.constant_power(g, b, floor)}
    loads = [make[kind](rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0))
             for kind in kinds]
    return assemble([sample_machine()], [machine_bus], net, loads=loads,
                    bus_ids=[f"n{k}" for k in range(n)])


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


def test_load_currents_match_load_current_on_every_bus():
    # The bank against the real-pair formula of each load, bus by bus, on
    # one state and on a (5,) stack, with all four load kinds present.
    rng = np.random.default_rng(48)
    sys_ = chain_system(LOAD_KINDS * 2, 5, rng, floor=0.1)
    mags = rng.uniform(0.5, 2.0, (5, sys_.n_v))
    V = (mags * np.exp(1j * rng.uniform(-np.pi, np.pi, mags.shape))).view(
        float)
    for v in (V[2], V):
        got = sys_.load_currents(v).reshape(v.shape[:-1] + (sys_.n_v, 2))
        for k, load in enumerate(sys_.loads):
            want = load_current(load, v[..., 2 * k:2 * k + 2].T).T
            gap = np.hypot(*(got[..., k, :] - want).T)
            assert np.all(gap <= 1e-14 * np.hypot(*want.T))

    # One floored bus below its floor in one state of the stack: the bank
    # names it by its file id, not its solve-order position, and the
    # formula refuses it too.
    k = next(k for k, ld in enumerate(sys_.loads)
             if ld.v_min > 0.0 and sys_.bus_ids[k] != f"n{k}")
    V[3, 2 * k:2 * k + 2] *= 0.5 * sys_.loads[k].v_min / mags[3, k]
    with pytest.raises(LoadDomainError,
                       match=f"bus {sys_.bus_ids[k]!r}: ") as info:
        sys_.load_currents(V)
    assert info.value.bus == sys_.bus_ids[k]
    with pytest.raises(LoadDomainError):
        load_current(sys_.loads[k], V[:, 2 * k:2 * k + 2].T)
