"""The leading batch axis of the system layer: a stack of states of shape
(..., n_x) gives, row by row, what one state at a time gives, and the
drift metrics of a whole trajectory come from one batched evaluation."""

import numpy as np
import pytest

from gridstate.errors import LoadDomainError
from gridstate.loads import Load
from gridstate.simulate import (SimConfig, drift_metrics,
                                reference_trajectory, simulate)
from gridstate.steady_state import compute_steady_state
from gridstate.system import (invariance_defect, residual,
                              residual_block_norms, steady_field,
                              vector_field)

from conftest import AnisotropicLoad, ring_mesh
from oracles import (blockwise_reference_trajectory, blockwise_steady_field,
                     load_current, looped_drift_metrics)

MIXED = ("impedance", "current", "power")


@pytest.fixture(scope="module")
def mesh():
    """Seeded 16-bus ring with all three shipped load kinds, and its
    steady state."""
    sys_, spec = ring_mesh(16, MIXED, seed=5)
    return sys_, compute_steady_state(sys_, spec)


@pytest.fixture(params=["fixture", "mesh", "anisotropic"])
def case(request, three_bus, certified, mesh):
    """(system, steady state) for the fixture, the mixed-load mesh, and the
    fixture with its load bus holding a custom anisotropic load."""
    if request.param == "mesh":
        return mesh
    sys_, _ = three_bus
    if request.param == "anisotropic":
        loads = [AnisotropicLoad(0.02, 0.05) if type(ld) is Load
                 and ld.kind != "none" else ld for ld in sys_.loads]
        assert loads != list(sys_.loads)
        sys_ = sys_.with_loads(loads)
    return sys_, certified


def stack_around(x, shape, seed):
    """States of shape ``shape + x.shape`` scattered 1% around x."""
    rng = np.random.default_rng(seed)
    return x * (1.0 + 1e-2 * rng.standard_normal(shape + x.shape))


def assert_rows_match(batch, single_of, states):
    """Every row of ``batch`` equals ``single_of`` at the matching state, up
    to rounding of the batched matrix products."""
    assert batch.shape == states.shape[:-1] + batch.shape[-1:]
    for idx in np.ndindex(states.shape[:-1]):
        want = single_of(states[idx])
        gauge = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(batch[idx], want, rtol=0.0,
                                   atol=1e-14 * gauge)


@pytest.mark.parametrize("shape", [(7,), (2, 3), (1,)])
def test_fields_and_residual_match_per_state_calls(case, shape):
    sys_, ss = case
    X = stack_around(ss.x, shape, seed=len(shape))
    assert_rows_match(vector_field(sys_, X, ss.u),
                      lambda x: vector_field(sys_, x, ss.u), X)
    assert_rows_match(residual(sys_, X, ss.u, ss.omega0),
                      lambda x: residual(sys_, x, ss.u, ss.omega0), X)
    assert_rows_match(steady_field(sys_, X, ss.omega0),
                      lambda x: steady_field(sys_, x, ss.omega0), X)
    V = X[..., sys_.layout.sl_v]
    assert_rows_match(sys_.load_currents(V), sys_.load_currents, V)


def test_a_401_state_stack_of_the_mixed_load_mesh(mesh):
    # The machine operators run as one product per machine over all 401
    # states; every row still equals the single-state call.
    sys_, ss = mesh
    X = stack_around(ss.x, (401,), seed=11)
    assert_rows_match(vector_field(sys_, X, ss.u),
                      lambda x: vector_field(sys_, x, ss.u), X)
    assert_rows_match(residual(sys_, X, ss.u, ss.omega0),
                      lambda x: residual(sys_, x, ss.u, ss.omega0), X)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", ["damper", "stator", "machine bus",
                                   "load bus"])
def test_a_non_finite_entry_reaches_only_the_rows_that_read_it(
        three_bus, certified, entry, bad):
    # A machine's entry reaches all its speed and winding rows, as its
    # operator product reads its whole stack, and no other machine's: the
    # stack's pad reads the machine's own stator pair. A stator current
    # reaches that component of its bus too. A voltage entry
    # reaches that component of each line at its bus, and its bus's pair
    # through the bus's load or, in the residual, the complex load current.
    # The same for one state and in the middle of a stack of 3.
    sys_ = three_bus[0]
    lay, net = sys_.layout, sys_.network
    rows, v0 = np.arange(sys_.n_x), lay.sl_v.start

    def machine(k):
        return {rows[lay.sl_omega][k], *rows[lay.sl_i][5 * k:5 * k + 5]}

    def lines_at(bus, a):
        at = np.flatnonzero((net.heads == bus) | (net.tails == bus))
        return set((lay.sl_iT.start + 2 * at + a).tolist())

    load_bus = sys_.n_v - 1  # the fixture's impedance load
    load_pair = {v0 + 2 * load_bus, v0 + 2 * load_bus + 1}
    at, want_field, want_residual = {
        "damper": (lay.sl_i.start + 5 + 4, machine(1), machine(1)),  # i_q
        "stator": (lay.sl_i.start + 5 + 1, machine(1) | {v0 + 3},  # i_beta
                   machine(1) | {v0 + 3}),
        "machine bus": (v0, machine(0) | lines_at(0, 0),
                        machine(0) | lines_at(0, 0) | {v0, v0 + 1}),
        "load bus": (v0 + 2 * load_bus + 1, load_pair | lines_at(load_bus, 1),
                     load_pair | lines_at(load_bus, 1)),
    }[entry]
    x = certified.x.copy()
    x[at] = bad
    stack = np.stack((certified.x, x, certified.x))
    u, omega0 = certified.u, certified.omega0
    with np.errstate(invalid="ignore"):
        for f, want in ((lambda y: vector_field(sys_, y, u), want_field),
                        (lambda y: residual(sys_, y, u, omega0), want_residual)):
            assert set(np.flatnonzero(~np.isfinite(f(x))).tolist()) == want
            got = f(stack)
            assert set(np.flatnonzero(~np.isfinite(got[1])).tolist()) == want
            assert np.isfinite(got[::2]).all()


def test_block_norms_of_a_stack_take_the_max_over_it(three_bus, certified):
    sys_, _ = three_bus
    ss = certified
    x = stack_around(ss.x, (), seed=12)
    single = residual_block_norms(sys_, residual(sys_, x, ss.u, ss.omega0))
    assert min(single.values()) > 0.0
    copies = residual(sys_, np.stack([x] * 3), ss.u, ss.omega0)
    assert residual_block_norms(sys_, copies) == pytest.approx(single,
                                                               rel=1e-14)
    # A stack whose rows differ reads the largest of each block.
    X = stack_around(ss.x, (4,), seed=13)
    rho = residual(sys_, X, ss.u, ss.omega0)
    rows = [residual_block_norms(sys_, r) for r in rho]
    assert residual_block_norms(sys_, rho) == {
        name: max(r[name] for r in rows) for name in single}


def test_invariance_defect_of_a_stack_takes_the_max_over_it(three_bus,
                                                           certified):
    # Like the block norms: copies of one state read that state's defect,
    # and a stack whose rows differ reads the largest of its rows.
    sys_, _ = three_bus
    ss = certified
    x = stack_around(ss.x, (), seed=12)
    single = invariance_defect(sys_, x, ss.u, ss.omega0)
    assert single > 0.0
    for copies in (np.stack([x] * 3), x[None, :]):
        assert invariance_defect(sys_, copies, ss.u, ss.omega0) \
            == pytest.approx(single, rel=1e-14)
    X = stack_around(ss.x, (2, 3), seed=13)
    assert invariance_defect(sys_, X, ss.u, ss.omega0) == pytest.approx(
        max(invariance_defect(sys_, row, ss.u, ss.omega0)
            for row in X.reshape(-1, sys_.n_x)), rel=1e-14)


def test_layout_pack_split_roundtrip_on_a_stack(mesh):
    sys_, ss = mesh
    lay = sys_.layout
    X = stack_around(ss.x, (4, 2), seed=3)
    theta, omega, i_flat, v, i_T = lay.split(X)
    blocks = i_flat.reshape(theta.shape + (5,))
    np.testing.assert_array_equal(lay.pack(theta, omega, blocks, v, i_T), X)
    # Blocks without the batch axes broadcast along it.
    packed = lay.pack(ss.x[lay.sl_theta], 0.0, blocks, v, i_T)
    np.testing.assert_array_equal(packed[..., lay.sl_theta],
                                  np.broadcast_to(ss.x[lay.sl_theta],
                                                  theta.shape))
    assert not np.any(packed[..., lay.sl_omega])


def test_reference_trajectory_over_times_equals_per_time_calls(case):
    sys_, ss = case
    times = np.linspace(0.0, 0.03, 60)
    batch = reference_trajectory(sys_, ss.x, ss.omega0, times)
    per_time = np.array([reference_trajectory(sys_, ss.x, ss.omega0, t)
                         for t in times])
    np.testing.assert_array_equal(batch, per_time)
    grid = reference_trajectory(sys_, ss.x, ss.omega0, times.reshape(3, -1))
    np.testing.assert_array_equal(grid, per_time.reshape(3, 20, -1))
    assert reference_trajectory(sys_, ss.x, ss.omega0, 0.0).shape \
        == ss.x.shape


@pytest.mark.parametrize("name", ["fixture", "ring24-mixed"])
def test_the_one_rotation_equals_the_blockwise_formulas(three_bus, certified,
                                                        name):
    # StateLayout.rotate on the pair rows gives, bit for bit, what turning
    # the stator, bus and line blocks one by one gives: for one time, a
    # vector and a grid of times, and for one state and stacks of 401.
    if name == "fixture":
        sys_, ss = three_bus[0], certified
    else:
        sys_, spec = ring_mesh(24, MIXED, seed=3)
        ss = compute_steady_state(sys_, spec)
    times = np.linspace(-0.01, 0.02, 401)
    for t in (0.0, 0.0123, times, times[:399].reshape(3, -1)):
        want = blockwise_reference_trajectory(sys_, ss.x, ss.omega0, t)
        got = reference_trajectory(sys_, ss.x, ss.omega0, t)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    X = stack_around(ss.x, (401,), seed=14)
    for x in (ss.x, X, X.reshape(1, 401, -1), X[:399].reshape(3, 133, -1)):
        for omega0 in (ss.omega0, -7.5, 0.0):
            want = blockwise_steady_field(sys_, x, omega0)
            got = steady_field(sys_, x, omega0)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
    # G itself is the field at omega0 = 1 with the angle rows zeroed.
    want = blockwise_steady_field(sys_, X, 1.0)
    want[:, sys_.layout.sl_theta] = 0.0
    np.testing.assert_array_equal(sys_.layout.rotate(X), want)


def test_batch_below_voltage_floor_names_the_file_bus(mesh):
    sys_, ss = mesh
    lay = sys_.layout
    # A floored load bus whose solve-order position differs from its id in
    # the input, so that naming the position would be caught.
    k = next(k for k, ld in enumerate(sys_.loads)
             if ld.v_min > 0.0 and sys_.bus_ids[k] != k)
    bus = sys_.bus_ids[k]
    X = stack_around(ss.x, (5,), seed=8)
    pair = slice(lay.sl_v.start + 2 * k, lay.sl_v.start + 2 * k + 2)
    X[3, pair] *= 0.1 * sys_.loads[k].v_min / np.linalg.norm(X[3, pair])
    for evaluate in (lambda s: vector_field(s, X, ss.u),
                     lambda s: residual(s, X, ss.u, ss.omega0),
                     lambda s: s.load_currents(X[:, lay.sl_v])):
        with pytest.raises(LoadDomainError, match=f"bus {bus!r}") as info:
            evaluate(sys_)
        assert info.value.bus == bus

    # A custom load (a subclass of Load, with its own ``current``) takes its
    # voltage columns as one (2, 5) batch and is named the same way.
    class Custom(Load):
        def current(self, v):
            return load_current(self, v)

    loads = list(sys_.loads)
    ld = sys_.loads[k]
    loads[k] = Custom(ld.kind, ld.coeffs, ld.exponent, ld.v_min)
    custom = sys_.with_loads(loads)
    assert [j for j, _ in custom.load_bank.custom] == [k]
    with pytest.raises(LoadDomainError, match=f"bus {bus!r}") as info:
        custom.load_currents(X[:, lay.sl_v])
    assert info.value.bus == bus
    X[3, pair] = ss.x[pair]
    assert_rows_match(custom.load_currents(X[:, lay.sl_v]),
                      sys_.load_currents, X[:, lay.sl_v])


def drifting_trajectory(sys_, ss, seed):
    """A short simulation from a start 2% off the steady state, so that
    every drift metric is nonzero."""
    rng = np.random.default_rng(seed)
    x0 = ss.x * (1.0 + 2e-2 * rng.standard_normal(ss.x.shape))
    return simulate(sys_, x0, ss.u, SimConfig(dt=1e-5, t_end=1e-3,
                                              record_every=5))


def test_drift_metrics_match_the_per_sample_loop(case):
    sys_, ss = case
    for traj in (drifting_trajectory(sys_, ss, seed=4),
                 simulate(sys_, ss.x, ss.u, SimConfig(dt=1e-5, t_end=5e-4))):
        got = drift_metrics(sys_, traj, ss.x, ss.omega0)
        want = looped_drift_metrics(sys_, traj, ss.x, ss.omega0)
        assert got.worst_sample == want.worst_sample
        assert got.state_deviation == want.state_deviation
        assert got.voltage_magnitude_deviation \
            == want.voltage_magnitude_deviation
        assert got.frequency_deviation == want.frequency_deviation
        assert got.residual == pytest.approx(want.residual, rel=1e-12)


def test_drift_metrics_worst_sample_is_the_first_maximum(three_bus,
                                                         certified):
    sys_, _ = three_bus
    ss = certified
    traj = drifting_trajectory(sys_, ss, seed=9)
    # Repeat the worst sample later on: the first occurrence is reported.
    worst = drift_metrics(sys_, traj, ss.x, ss.omega0).worst_sample
    traj.states = np.concatenate([traj.states, traj.states[worst:worst + 1]])
    traj.times = np.concatenate([traj.times, traj.times[worst:worst + 1]])
    assert drift_metrics(sys_, traj, ss.x, ss.omega0).worst_sample == worst
    assert looped_drift_metrics(sys_, traj, ss.x,
                                ss.omega0).worst_sample == worst
