import numpy as np
import pytest

from gridstate.errors import ValidationError
from gridstate.frame import (as_complex, block_rotation_generator,
                             incidence_blocks, real_blocks)
from gridstate.loads import Load, LoadBank
from gridstate.network import (NetworkParams, Topology, admittance,
                               line_admittance, solve_branch_currents)

from conftest import ring_mesh
from oracles import (NetworkState, branch_impedance, network_residual,
                     network_rhs, nodal_balance_residual)


def chain_topology(n_v):
    E = np.zeros((n_v, n_v - 1))
    for t in range(n_v - 1):
        E[t, t], E[t + 1, t] = 1.0, -1.0
    return Topology(E)


def random_tree(rng, n_v):
    E = np.zeros((n_v, n_v - 1))
    for t in range(1, n_v):
        parent = rng.integers(0, t)
        E[parent, t - 1], E[t, t - 1] = 1.0, -1.0
    return Topology(E)


def no_loads(n_v):
    """Load admittances of n_v buses without loads."""
    return LoadBank([Load.none()] * n_v, range(n_v)).admittance(
        np.zeros(n_v, complex))


def test_incidence_real_blocks_single_line():
    top = Topology(np.array([[1.0], [-1.0]]))
    np.testing.assert_array_equal(real_blocks(top.incidence),
                                  np.vstack([np.eye(2), -np.eye(2)]))


def test_incidence_column_sums_vanish():
    top = chain_topology(4)
    E2 = real_blocks(top.incidence)
    np.testing.assert_array_equal(E2.sum(axis=0), np.zeros(E2.shape[1]))


def test_incidence_commutes_with_rotations():
    rng = np.random.default_rng(30)
    top = random_tree(rng, 4)
    E2 = real_blocks(top.incidence)
    Jv = block_rotation_generator(top.n_v)
    Jt = block_rotation_generator(top.n_t)
    np.testing.assert_array_equal(E2 @ Jt, Jv @ E2)


def test_system_incidence2_is_kron_identity(three_bus):
    sys_, _ = three_bus
    np.testing.assert_array_equal(
        sys_.incidence2, np.kron(sys_.topology.incidence, np.eye(2)))


@pytest.mark.parametrize("n_bus", [None, 64])
def test_line_admittance_equals_the_complex_product(three_bus, n_bus):
    # The real and imaginary parts come from two real products; they match
    # the complex product E diag(1 / z) E^T on the fixture and a 64-bus mesh.
    sys_ = three_bus[0] if n_bus is None else ring_mesh(n_bus,
                                                        ("impedance",))[0]
    E = sys_.topology.incidence
    for omega0 in (0.0, 50.0, 314.0):
        want = (E / (sys_.network.r_T + 1j * omega0 * sys_.network.l_T)) @ E.T
        got = line_admittance(sys_.network, sys_.topology, omega0)
        assert got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_topology_validation():
    with pytest.raises(ValidationError):
        Topology(np.array([[1.0], [0.0]]))  # dangling line
    with pytest.raises(ValidationError):
        Topology(np.array([[2.0], [-2.0]]))  # bad entries
    disconnected = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(ValidationError):
        Topology(disconnected)


def test_topology_names_first_bad_line():
    E = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    with pytest.raises(ValidationError, match="^line 1 must have exactly one"):
        Topology(E)


def test_topology_components_match_scipy():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(31)
    connected = set()
    for _ in range(300):
        n_v, n_t = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        E = np.zeros((n_v, n_t))
        for t in range(n_t):
            a, b = rng.choice(n_v, size=2, replace=False)
            E[a, t], E[b, t] = 1.0, -1.0
        n_comp, _ = connected_components(csr_matrix(E @ E.T != 0),
                                         directed=False)
        connected.add(n_comp == 1)
        if n_comp == 1:
            assert Topology(E).n_t == n_t
        else:
            with pytest.raises(ValidationError,
                               match=f"found {n_comp} components"):
                Topology(E)
    assert connected == {True, False}


@pytest.mark.parametrize("E, message", [
    ([[1.0], [0.0]], "line 0 must have exactly one +1 and one -1 endpoint"),
    ([[2.0], [-2.0]], "incidence entries must be in {-1, 0, 1}"),
    ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
     "network graph must be connected, found 2 components"),
    ([[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
     "line 1 must have exactly one +1 and one -1 endpoint"),
    ([1.0, -1.0], "incidence matrix must be 2-D, got shape (2,)"),
    (np.zeros((2, 0)), "incidence matrix must be 2-D, got shape (2, 0)"),
    ([[np.nan], [-1.0]], "incidence entries must be in {-1, 0, 1}"),
    ([[1.0], [-1.0], [0.0]],
     "network graph must be connected, found 2 components"),
    ([[1.0], [1.0]], "line 0 must have exactly one +1 and one -1 endpoint"),
    ([[-1.0], [-1.0], [1.0]],
     "line 0 must have exactly one +1 and one -1 endpoint"),
], ids=["dangling", "entries", "disconnected", "first-bad-line", "1-D",
        "no-lines", "nan", "isolated-bus", "two-heads", "three-ends"])
def test_malformed_incidence_messages(E, message):
    # The checks read the line endpoints; each malformed incidence still
    # gets the message the dense checks gave it.
    with pytest.raises(ValidationError) as err:
        Topology(np.array(E))
    assert str(err.value) == message


def test_endpoints_match_dense_columns():
    rng = np.random.default_rng(32)
    for _ in range(200):
        n_v = int(rng.integers(2, 12))
        top = random_tree(rng, n_v)
        extra = np.zeros((n_v, int(rng.integers(0, 5))))
        for t in range(extra.shape[1]):
            a, b = rng.choice(n_v, size=2, replace=False)
            extra[a, t], extra[b, t] = 1.0, -1.0
        E = np.hstack((top.incidence, extra))
        for top in (Topology(E), Topology(E).relabel(rng.permutation(n_v))):
            E = top.incidence
            np.testing.assert_array_equal(top.heads, np.argmax(E == 1, axis=0))
            np.testing.assert_array_equal(top.tails,
                                          np.argmax(E == -1, axis=0))
            assert incidence_blocks(top.heads, top.tails, top.n_v).tobytes() \
                == real_blocks(E).tobytes()


def test_relabel_moves_buses_without_checking_again(monkeypatch):
    E = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    params = NetworkParams(c=np.array([1e-4, 2e-4, 3e-4]),
                           l_T=np.array([1e-3, 2e-3]), r_T=np.array([0.1, 0.2]))
    checked = Topology(E)

    def no_check(self):
        raise AssertionError("checked again")
    monkeypatch.setattr(Topology, "__post_init__", no_check)
    monkeypatch.setattr(NetworkParams, "__post_init__", no_check)
    order = [2, 0, 1]
    top = checked.relabel(order)
    np.testing.assert_array_equal(top.incidence, E[order])
    np.testing.assert_array_equal(top.heads, [1, 2])
    np.testing.assert_array_equal(top.tails, [2, 0])
    moved = params.relabel(order)
    np.testing.assert_array_equal(moved.c, [3e-4, 1e-4, 2e-4])
    assert moved.l_T is params.l_T and moved.r_T is params.r_T


def test_network_params_validation():
    with pytest.raises(ValidationError):
        NetworkParams(c=np.array([1e-4, -1e-4]), l_T=np.array([1e-3]),
                      r_T=np.array([0.1]))


def test_network_rhs_zero_state():
    top = chain_topology(2)
    params = NetworkParams(c=np.array([1e-4, 1e-4]), l_T=np.array([1e-3]),
                           r_T=np.array([0.1]))
    dv, di = network_rhs(params, top, NetworkState(np.zeros(4), np.zeros(2)),
                         np.zeros(4))
    np.testing.assert_array_equal(dv, np.zeros(4))
    np.testing.assert_array_equal(di, np.zeros(2))


def test_network_rhs_equal_voltages_no_flow():
    top = chain_topology(2)
    params = NetworkParams(c=np.array([1e-4, 2e-4]), l_T=np.array([1e-3]),
                           r_T=np.array([0.1]))
    state = NetworkState(np.array([1.0, 0.0, 1.0, 0.0]), np.zeros(2))
    dv, di = network_rhs(params, top, state, np.zeros(4))
    np.testing.assert_array_equal(di, np.zeros(2))
    np.testing.assert_array_equal(dv, np.zeros(4))


def test_network_rhs_dimension_check():
    top = chain_topology(2)
    params = NetworkParams(c=np.array([1e-4, 1e-4]), l_T=np.array([1e-3]),
                           r_T=np.array([0.1]))
    with pytest.raises(ValueError):
        network_rhs(params, top, NetworkState(np.zeros(3), np.zeros(2)),
                    np.zeros(4))


def test_network_energy_balance():
    # d/dt (capacitor + line energy) = -line losses - power leaving the buses
    rng = np.random.default_rng(31)
    top = random_tree(rng, 5)
    params = NetworkParams(c=rng.uniform(1e-4, 1e-3, 5),
                           l_T=rng.uniform(1e-3, 5e-3, 4),
                           r_T=rng.uniform(0.1, 1.0, 4))
    v = rng.uniform(-3, 3, 10)
    i_T = rng.uniform(-2, 2, 8)
    i_in = rng.uniform(-1, 1, 10)
    dv, di = network_rhs(params, top, NetworkState(v, i_T), i_in)
    lhs = np.sum(np.repeat(params.c, 2) * v * dv) \
        + np.sum(np.repeat(params.l_T, 2) * i_T * di)
    rhs = -np.sum(np.repeat(params.r_T, 2) * i_T**2) - v @ i_in
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_branch_impedance_cases():
    params = NetworkParams(c=np.array([1e-4, 1e-4]), l_T=np.array([1.0]),
                           r_T=np.array([1.0]))
    np.testing.assert_array_equal(branch_impedance(params, 0.0), np.eye(2))
    np.testing.assert_array_equal(branch_impedance(params, 1.0),
                                  np.array([[1.0, -1.0], [1.0, 1.0]]))


def test_branch_impedance_always_invertible():
    rng = np.random.default_rng(32)
    params = NetworkParams(c=np.array([1e-4] * 2),
                           l_T=rng.uniform(1e-3, 1e-1, 6),
                           r_T=rng.uniform(1e-2, 1.0, 6))
    for omega0 in (-377.0, 0.0, 1.0, 314.159):
        Z = branch_impedance(params, omega0)
        for t in range(6):
            blk = Z[2 * t:2 * t + 2, 2 * t:2 * t + 2]
            det = np.linalg.det(blk)
            assert det == pytest.approx(
                params.r_T[t] ** 2 + (omega0 * params.l_T[t]) ** 2, rel=1e-12)
        w = rng.standard_normal(12)
        np.testing.assert_allclose(Z @ solve_branch_currents(params, omega0, w),
                                   w, atol=1e-12 * max(1, np.max(np.abs(w))))


def test_admittance_two_bus_hand_value():
    top = Topology(np.array([[1.0], [-1.0]]))
    params = NetworkParams(c=np.array([1e-4, 1e-4]), l_T=np.array([1e-3]),
                           r_T=np.array([0.5]))
    Y = admittance(params, no_loads(2), 0.0, line_admittance(params, top, 0.0))
    np.testing.assert_allclose(Y, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-12)


def test_admittance_is_weighted_laplacian_without_loads():
    rng = np.random.default_rng(33)
    top = random_tree(rng, 5)
    params = NetworkParams(c=rng.uniform(1e-4, 1e-3, 5),
                           l_T=rng.uniform(1e-3, 5e-3, 4),
                           r_T=rng.uniform(0.2, 2.0, 4))
    Y = admittance(params, no_loads(5), 0.0, line_admittance(params, top, 0.0))
    lap = top.incidence @ np.diag(1.0 / params.r_T) @ top.incidence.T
    np.testing.assert_allclose(Y, lap, atol=1e-12)
    # PSD with nullspace spanned by uniform voltages
    eigs = np.linalg.eigvalsh(Y)
    assert eigs[0] >= -1e-12
    np.testing.assert_allclose(Y @ np.ones(5), np.zeros(5), atol=1e-12)


def test_impedance_load_adds_shunt_block():
    top = Topology(np.array([[1.0], [-1.0]]))
    params = NetworkParams(c=np.array([1e-4, 1e-4]), l_T=np.array([1e-3]),
                           r_T=np.array([0.5]))
    g, b = 0.7, -0.2
    lines = line_admittance(params, top, 0.0)
    base = admittance(params, no_loads(2), 0.0, lines)
    bank = LoadBank([Load.none(), Load.impedance(g, b)], range(2))
    with_load = admittance(params, bank.admittance(np.zeros(2, complex)), 0.0,
                           lines)
    delta = with_load - base
    np.testing.assert_allclose(real_blocks(delta)[2:, 2:],
                               [[g, -b], [b, g]], atol=1e-15)
    assert np.count_nonzero(delta[:1, :]) == 0


def test_admittance_into_a_workspace_writes_only_the_diagonal():
    # A Newton iteration reuses one matrix: only the shunts change.
    sys_, spec = ring_mesh(16, ("impedance", "current", "power"), seed=9)
    lines = line_admittance(sys_.network, sys_.topology, spec.omega0)
    Y = lines.copy()
    for level in (1.0, 5.0, 0.5):
        vc = as_complex(level * np.ones(2 * sys_.n_v))
        y_load = sys_.load_bank.admittance(vc)
        fresh = admittance(sys_.network, y_load, spec.omega0, lines)
        assert admittance(sys_.network, y_load, spec.omega0, lines,
                          out=Y) is Y
        np.testing.assert_array_equal(Y, fresh)
    off = ~np.eye(sys_.n_v, dtype=bool)
    np.testing.assert_array_equal(Y[off], lines[off])


def test_network_residual_zero_case_and_lipschitz():
    rng = np.random.default_rng(34)
    top = random_tree(rng, 4)
    params = NetworkParams(c=rng.uniform(1e-4, 1e-3, 4),
                           l_T=rng.uniform(1e-3, 5e-3, 3),
                           r_T=rng.uniform(0.2, 2.0, 3))
    loads = [Load.none()] * 4
    zero = network_residual(params, top, loads, np.zeros(2), np.zeros(8),
                            np.zeros(6), 314.0)
    np.testing.assert_array_equal(zero, np.zeros(14))

    v = rng.uniform(-3, 3, 8)
    i_s = rng.uniform(-2, 2, 2)
    i_T = rng.uniform(-2, 2, 6)
    base = network_residual(params, top, loads, i_s, v, i_T, 314.0)
    for _ in range(10):
        delta = rng.uniform(-1, 1, 8) * 1e-3
        moved = network_residual(params, top, loads, i_s, v + delta, i_T, 314.0)
        ratio = np.linalg.norm(moved - base) / np.linalg.norm(delta)
        assert ratio < 1e3  # finite local Lipschitz constant


def test_nodal_balance_two_bus_analytic():
    # One machine bus at (1, 0), a resistive load g through a resistive line:
    # the load-bus voltage divides as v1 / (1 + g r).
    top = Topology(np.array([[1.0], [-1.0]]))
    g, r = 1.0, 1.0
    params = NetworkParams(c=np.array([1e-4, 2e-4]), l_T=np.array([3e-3]),
                           r_T=np.array([r]))
    loads = [Load.none(), Load.impedance(g, 0.0)]
    v = np.array([1.0, 0.0, 1.0 / (1.0 + g * r), 0.0])
    balance = nodal_balance_residual(params, top, loads, np.zeros(2), v, 0.0)
    np.testing.assert_allclose(balance[2:], np.zeros(2), atol=1e-14)
    i_s = -balance[:2]
    full = nodal_balance_residual(params, top, loads, i_s, v, 0.0)
    np.testing.assert_allclose(full, np.zeros(4), atol=1e-14)


def test_line_elimination_reproduces_nodal_residual():
    rng = np.random.default_rng(35)
    top = random_tree(rng, 4)
    params = NetworkParams(c=rng.uniform(1e-4, 1e-3, 4),
                           l_T=rng.uniform(1e-3, 5e-3, 3),
                           r_T=rng.uniform(0.2, 2.0, 3))
    loads = [Load.none(), Load.impedance(0.3, 0.1), Load.none(),
             Load.constant_power(0.5, 0.2)]
    omega0 = 120.0
    v = rng.uniform(1.0, 3.0, 8)
    i_s = rng.uniform(-2, 2, 4)
    i_T = solve_branch_currents(params, omega0,
                                real_blocks(top.incidence).T @ v)
    rho_full = network_residual(params, top, loads, i_s, v, i_T, omega0)
    nodal = nodal_balance_residual(params, top, loads, i_s, v, omega0)
    np.testing.assert_allclose(rho_full[:8], nodal, atol=1e-12)
    np.testing.assert_allclose(rho_full[8:], np.zeros(6), atol=1e-12)
