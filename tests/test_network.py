import numpy as np
import pytest

from gridstate.errors import ValidationError
from gridstate import system
from gridstate.frame import real_blocks
from gridstate.loads import Load, LoadBank
from gridstate.network import Network, admittance

from conftest import ring_mesh, sample_machine
from oracles import (NetworkState, block_rotation_generator,
                     branch_currents, branch_impedance, dense_admittance,
                     dense_incidence, network_residual, network_rhs,
                     nodal_balance_residual)


def make_network(heads, tails, n_v=None, c=None, r_T=None, l_T=None):
    """A network on the given endpoints; parameters left out default to
    equal values on every bus or line."""
    n_v = max(max(heads), max(tails)) + 1 if n_v is None else n_v
    n_t = len(heads)
    return Network(heads=np.array(heads), tails=np.array(tails),
                   c=np.full(n_v, 1e-4) if c is None else c,
                   r_T=np.full(n_t, 0.1) if r_T is None else r_T,
                   l_T=np.full(n_t, 1e-3) if l_T is None else l_T)


def chain(n_v, **params):
    return make_network(list(range(n_v - 1)), list(range(1, n_v)), **params)


def random_tree(rng, n_v):
    """Endpoints of a random tree: bus t > 0 hangs off an earlier bus."""
    parents = [int(rng.integers(0, t)) for t in range(1, n_v)]
    return parents, list(range(1, n_v))


def pair_blocks(net):
    """The residual's incidence on pairs as a dense matrix: its bus rows at
    omega0 = 0 for each unit line current pair alone, on an unloaded
    system with one machine at bus 0, which keeps the network's bus
    order."""
    sys_ = system.assemble([sample_machine()], [0], net)
    lay, eye = sys_.layout, np.eye(2 * net.n_t)
    x = lay.pack(0.0, 0.0, np.zeros((len(eye), 1, 5)),
                 np.zeros((len(eye), 2 * net.n_v)), eye)
    return system.residual(sys_, x, np.zeros(lay.n_u), 0.0)[:, lay.sl_v].T


def no_loads(n_v):
    """Load admittances of n_v buses without loads."""
    return LoadBank([Load.none()] * n_v, range(n_v), 1).admittance(
        np.zeros(n_v, complex))


def test_incidence_real_blocks_single_line():
    np.testing.assert_array_equal(pair_blocks(chain(2)),
                                  np.vstack([np.eye(2), -np.eye(2)]))


def test_incidence_column_sums_vanish():
    E2 = pair_blocks(chain(4))
    np.testing.assert_array_equal(E2.sum(axis=0), np.zeros(E2.shape[1]))


def test_incidence_commutes_with_rotations():
    rng = np.random.default_rng(30)
    net = make_network(*random_tree(rng, 4))
    E2 = pair_blocks(net)
    Jv = block_rotation_generator(net.n_v)
    Jt = block_rotation_generator(net.n_t)
    np.testing.assert_array_equal(E2 @ Jt, Jv @ E2)


@pytest.mark.parametrize("n_bus", [None, 24, 160])
def test_system_incidence_is_kron_identity(three_bus, n_bus):
    # The residual's linear rows hold E kron I_2, for one state and for
    # stacks: at omega0 = 0, with no loads or machine currents, its line
    # rows are r i_T - E2^T v and its bus rows E2 i_T, both to the rounding
    # of the dense sums.
    sys_ = three_bus[0] if n_bus is None else \
        ring_mesh(n_bus, ("impedance", "current", "power"), seed=n_bus)[0]
    bare, lay = sys_.with_loads([Load.none()] * sys_.n_v), sys_.layout
    E2 = np.kron(dense_incidence(sys_.network), np.eye(2))
    rng = np.random.default_rng(36)
    for shape in [(), (7,), (2, 3)]:
        v = rng.uniform(-3, 3, shape + (2 * sys_.n_v,))
        i_T = rng.uniform(-2, 2, shape + (2 * sys_.n_t,))
        x = lay.pack(0.0, 0.0, np.zeros(shape + (sys_.n_g, 5)), v, i_T)
        rho = system.residual(bare, x, np.zeros(lay.n_u), 0.0)
        np.testing.assert_allclose(
            rho[..., lay.sl_iT], np.repeat(sys_.network.r_T, 2) * i_T - v @ E2,
            rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(rho[..., lay.sl_v], i_T @ E2.T, rtol=0.0,
                                   atol=1e-15)


@pytest.mark.parametrize("n_bus", [None, 64])
def test_line_admittance_equals_the_complex_product(three_bus, n_bus):
    # The edge-list scatter matches the dense complex product
    # E diag(1 / z) E^T, plus the diagonal shunts, on the fixture and a
    # 64-bus mesh.
    sys_ = three_bus[0] if n_bus is None else ring_mesh(n_bus,
                                                        ("impedance",))[0]
    y_load = sys_.load_bank.y
    for omega0 in (0.0, 50.0, 314.0):
        want = dense_admittance(sys_.network, y_load, omega0)
        got = admittance(sys_.network, y_load, omega0)
        assert got.dtype == complex
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_topology_validation():
    with pytest.raises(ValidationError):
        make_network([0], [2], n_v=2)  # dangling line
    with pytest.raises(ValidationError):
        make_network([0.5], [1], n_v=2)  # bad entries
    with pytest.raises(ValidationError):
        make_network([0, 2], [1, 3])  # disconnected


def test_topology_names_first_bad_line():
    with pytest.raises(ValidationError, match="^line 1 endpoint 5 "):
        make_network([0, 5, 6], [1, 2, 2], n_v=3)


def test_topology_components_match_scipy():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(31)
    connected = set()
    for _ in range(300):
        n_v, n_t = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        heads, tails = np.array([rng.choice(n_v, size=2, replace=False)
                                 for _ in range(n_t)]).T
        graph = csr_matrix((np.ones(n_t), (heads, tails)), shape=(n_v, n_v))
        n_comp, _ = connected_components(graph, directed=False)
        connected.add(n_comp == 1)
        if n_comp == 1:
            assert make_network(heads, tails, n_v=n_v).n_t == n_t
        else:
            with pytest.raises(ValidationError,
                               match=f"found {n_comp} components"):
                make_network(heads, tails, n_v=n_v)
    assert connected == {True, False}


@pytest.mark.parametrize("heads, tails, n_v, params, message", [
    ([0], [2], 2, {}, "line 0 endpoint 2 is not a bus index in [0, 2)"),
    ([0], [-1], 2, {}, "line 0 endpoint -1 is not a bus index in [0, 2)"),
    ([0.0], [1.0], 2, {}, "heads must hold integer bus indices"),
    ([np.nan], [1], 2, {}, "heads must hold integer bus indices"),
    ([0], [True], 2, {}, "tails must hold integer bus indices"),
    ([0, 2], [1, 3], 4, {},
     "network graph must be connected, found 2 components"),
    ([0], [1], 3, {}, "network graph must be connected, found 2 components"),
    ([1], [1], 2, {}, "line 0 joins bus 1 to itself"),
    ([0, 1, 2], [1, 1, 2], 3, {}, "line 1 joins bus 1 to itself"),
    ([[0], [1]], [1, 0], 2, {},
     "heads must have one entry per line (2), got shape (2, 1)"),
    ([0, 1], [1], 2, {},
     "tails must have one entry per line (2), got shape (1,)"),
    ([0], [1, 2], 3, {},
     "tails must have one entry per line (1), got shape (2,)"),
    ([0], [1], 2, {"r_T": np.array([0.1, 0.2])},
     "r_T must have one entry per line (1), got shape (2,)"),
    ([], [], 2, {"r_T": np.array([]), "l_T": np.array([])},
     "network must have at least one line"),
    ([0], [1], 2, {"c": np.array([1e-4, 0.0])},
     "network parameter c must be positive"),
    ([0], [1], 2, {"l_T": np.array([np.inf])},
     "network parameter l_T must be positive"),
], ids=["dangling", "negative-end", "entries", "nan", "boolean-end",
        "disconnected", "isolated-bus", "equal-endpoints", "first-bad-line",
        "1-D", "two-heads", "three-ends", "length-mismatch", "no-lines",
        "non-positive-c", "infinite-l"])
def test_malformed_incidence_messages(heads, tails, n_v, params, message):
    # The line-bus incidence comes as each line's two endpoints; each
    # malformed edge list gets its own exact message.
    with pytest.raises(ValidationError) as err:
        Network(heads=heads, tails=tails,
                **{"c": np.full(n_v, 1e-4), "r_T": np.full(len(heads), 0.1),
                   "l_T": np.full(len(heads), 1e-3), **params})
    assert str(err.value) == message


def test_endpoints_match_dense_columns():
    # The residual's incidence of the endpoints is real_blocks of the dense
    # E, before and after relabelling; relabelling moves the rows of E.
    rng = np.random.default_rng(32)
    for _ in range(200):
        n_v = int(rng.integers(2, 12))
        heads, tails = random_tree(rng, n_v)
        for _ in range(int(rng.integers(0, 5))):
            a, b = rng.choice(n_v, size=2, replace=False)
            heads.append(a)
            tails.append(b)
        net = make_network(heads, tails, n_v=n_v)
        order = rng.permutation(n_v)
        moved = net.relabel(order)
        np.testing.assert_array_equal(dense_incidence(moved),
                                      dense_incidence(net)[order])
        for top in (net, moved):
            E = dense_incidence(top)
            np.testing.assert_array_equal(top.heads, np.argmax(E == 1, axis=0))
            np.testing.assert_array_equal(top.tails,
                                          np.argmax(E == -1, axis=0))
            np.testing.assert_array_equal(pair_blocks(top), real_blocks(E))


def test_relabelling_keeps_no_stale_positions():
    # admittance keeps its scatter positions on the network after the
    # first call; a relabelled network must build its own for the new
    # numbering, and parallel lines still add up.
    rng = np.random.default_rng(33)
    for _ in range(200):
        n_v = int(rng.integers(2, 12))
        heads, tails = random_tree(rng, n_v)
        for _ in range(int(rng.integers(0, 5))):
            a, b = rng.choice(n_v, size=2, replace=False)
            heads.append(a)
            tails.append(b)
        net = make_network(heads, tails, n_v=n_v,
                           r_T=rng.uniform(0.05, 0.5, len(heads)),
                           l_T=rng.uniform(1e-3, 5e-3, len(heads)))
        omega0 = float(rng.choice([0.0, 50.0, 314.0]))
        y_load = rng.uniform(0.0, 2.0, n_v) + 1j * rng.uniform(-1, 1, n_v)
        admittance(net, y_load, omega0)
        moved = net.relabel(rng.permutation(n_v))
        for top in (net, moved):
            want = dense_admittance(top, y_load, omega0)
            got = admittance(top, y_load, omega0)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_relabel_moves_buses_without_checking_again(monkeypatch):
    checked = make_network([0, 1], [1, 2], c=np.array([1e-4, 2e-4, 3e-4]),
                           r_T=np.array([0.1, 0.2]),
                           l_T=np.array([1e-3, 2e-3]))

    def no_check(self):
        raise AssertionError("checked again")
    monkeypatch.setattr(Network, "__post_init__", no_check)
    order = [2, 0, 1]
    moved = checked.relabel(order)
    np.testing.assert_array_equal(moved.heads, [1, 2])
    np.testing.assert_array_equal(moved.tails, [2, 0])
    np.testing.assert_array_equal(moved.c, [3e-4, 1e-4, 2e-4])
    assert moved.l_T is checked.l_T and moved.r_T is checked.r_T


def test_network_params_validation():
    with pytest.raises(ValidationError):
        chain(2, c=np.array([1e-4, -1e-4]))


def test_network_rhs_zero_state():
    net = chain(2)
    dv, di = network_rhs(net, NetworkState(np.zeros(4), np.zeros(2)),
                         np.zeros(4))
    np.testing.assert_array_equal(dv, np.zeros(4))
    np.testing.assert_array_equal(di, np.zeros(2))


def test_network_rhs_equal_voltages_no_flow():
    net = chain(2, c=np.array([1e-4, 2e-4]))
    state = NetworkState(np.array([1.0, 0.0, 1.0, 0.0]), np.zeros(2))
    dv, di = network_rhs(net, state, np.zeros(4))
    np.testing.assert_array_equal(di, np.zeros(2))
    np.testing.assert_array_equal(dv, np.zeros(4))


def test_network_rhs_dimension_check():
    with pytest.raises(ValueError):
        network_rhs(chain(2), NetworkState(np.zeros(3), np.zeros(2)),
                    np.zeros(4))


def test_network_energy_balance():
    # d/dt (capacitor + line energy) = -line losses - power leaving the buses
    rng = np.random.default_rng(31)
    net = make_network(*random_tree(rng, 5), c=rng.uniform(1e-4, 1e-3, 5),
                       l_T=rng.uniform(1e-3, 5e-3, 4),
                       r_T=rng.uniform(0.1, 1.0, 4))
    v = rng.uniform(-3, 3, 10)
    i_T = rng.uniform(-2, 2, 8)
    i_in = rng.uniform(-1, 1, 10)
    dv, di = network_rhs(net, NetworkState(v, i_T), i_in)
    lhs = np.sum(np.repeat(net.c, 2) * v * dv) \
        + np.sum(np.repeat(net.l_T, 2) * i_T * di)
    rhs = -np.sum(np.repeat(net.r_T, 2) * i_T**2) - v @ i_in
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_branch_impedance_cases():
    net = chain(2, r_T=np.array([1.0]), l_T=np.array([1.0]))
    np.testing.assert_array_equal(branch_impedance(net, 0.0), np.eye(2))
    np.testing.assert_array_equal(branch_impedance(net, 1.0),
                                  np.array([[1.0, -1.0], [1.0, 1.0]]))


def test_branch_impedance_always_invertible():
    rng = np.random.default_rng(32)
    net = make_network([0] * 6, [1] * 6, l_T=rng.uniform(1e-3, 1e-1, 6),
                       r_T=rng.uniform(1e-2, 1.0, 6))
    for omega0 in (-377.0, 0.0, 1.0, 314.159):
        Z = branch_impedance(net, omega0)
        for t in range(6):
            blk = Z[2 * t:2 * t + 2, 2 * t:2 * t + 2]
            det = np.linalg.det(blk)
            assert det == pytest.approx(
                net.r_T[t] ** 2 + (omega0 * net.l_T[t]) ** 2, rel=1e-12)
        w = rng.standard_normal(12)
        np.testing.assert_allclose(Z @ branch_currents(net, omega0, w),
                                   w, atol=1e-12 * max(1, np.max(np.abs(w))))


def test_admittance_two_bus_hand_value():
    net = chain(2, r_T=np.array([0.5]))
    Y = admittance(net, no_loads(2), 0.0)
    np.testing.assert_allclose(Y, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-12)


def test_admittance_is_weighted_laplacian_without_loads():
    rng = np.random.default_rng(33)
    net = make_network(*random_tree(rng, 5), c=rng.uniform(1e-4, 1e-3, 5),
                       l_T=rng.uniform(1e-3, 5e-3, 4),
                       r_T=rng.uniform(0.2, 2.0, 4))
    Y = admittance(net, no_loads(5), 0.0)
    E = dense_incidence(net)
    np.testing.assert_allclose(Y, E @ np.diag(1.0 / net.r_T) @ E.T,
                               atol=1e-12)
    # PSD with nullspace spanned by uniform voltages
    eigs = np.linalg.eigvalsh(Y)
    assert eigs[0] >= -1e-12
    np.testing.assert_allclose(Y @ np.ones(5), np.zeros(5), atol=1e-12)


def test_impedance_load_adds_shunt_block():
    net = chain(2, r_T=np.array([0.5]))
    g, b = 0.7, -0.2
    base = admittance(net, no_loads(2), 0.0)
    bank = LoadBank([Load.none(), Load.impedance(g, b)], range(2), 1)
    with_load = admittance(net, bank.admittance(np.zeros(2, complex)), 0.0)
    delta = with_load - base
    np.testing.assert_allclose(real_blocks(delta)[2:, 2:],
                               [[g, -b], [b, g]], atol=1e-15)
    assert np.count_nonzero(delta[:1, :]) == 0


def test_network_residual_zero_case_and_lipschitz():
    rng = np.random.default_rng(34)
    net = make_network(*random_tree(rng, 4), c=rng.uniform(1e-4, 1e-3, 4),
                       l_T=rng.uniform(1e-3, 5e-3, 3),
                       r_T=rng.uniform(0.2, 2.0, 3))
    loads = [Load.none()] * 4
    zero = network_residual(net, loads, np.zeros(2), np.zeros(8),
                            np.zeros(6), 314.0)
    np.testing.assert_array_equal(zero, np.zeros(14))

    v = rng.uniform(-3, 3, 8)
    i_s = rng.uniform(-2, 2, 2)
    i_T = rng.uniform(-2, 2, 6)
    base = network_residual(net, loads, i_s, v, i_T, 314.0)
    for _ in range(10):
        delta = rng.uniform(-1, 1, 8) * 1e-3
        moved = network_residual(net, loads, i_s, v + delta, i_T, 314.0)
        ratio = np.linalg.norm(moved - base) / np.linalg.norm(delta)
        assert ratio < 1e3  # finite local Lipschitz constant


def test_nodal_balance_two_bus_analytic():
    # One machine bus at (1, 0), a resistive load g through a resistive line:
    # the load-bus voltage divides as v1 / (1 + g r).
    g, r = 1.0, 1.0
    net = chain(2, c=np.array([1e-4, 2e-4]), r_T=np.array([r]),
                l_T=np.array([3e-3]))
    loads = [Load.none(), Load.impedance(g, 0.0)]
    v = np.array([1.0, 0.0, 1.0 / (1.0 + g * r), 0.0])
    balance = nodal_balance_residual(net, loads, np.zeros(2), v, 0.0)
    np.testing.assert_allclose(balance[2:], np.zeros(2), atol=1e-14)
    i_s = -balance[:2]
    full = nodal_balance_residual(net, loads, i_s, v, 0.0)
    np.testing.assert_allclose(full, np.zeros(4), atol=1e-14)


def test_line_elimination_reproduces_nodal_residual():
    rng = np.random.default_rng(35)
    net = make_network(*random_tree(rng, 4), c=rng.uniform(1e-4, 1e-3, 4),
                       l_T=rng.uniform(1e-3, 5e-3, 3),
                       r_T=rng.uniform(0.2, 2.0, 3))
    loads = [Load.none(), Load.impedance(0.3, 0.1), Load.none(),
             Load.constant_power(0.5, 0.2)]
    omega0 = 120.0
    v = rng.uniform(1.0, 3.0, 8)
    i_s = rng.uniform(-2, 2, 4)
    i_T = branch_currents(net, omega0, real_blocks(dense_incidence(net)).T @ v)
    rho_full = network_residual(net, loads, i_s, v, i_T, omega0)
    nodal = nodal_balance_residual(net, loads, i_s, v, omega0)
    np.testing.assert_allclose(rho_full[:8], nodal, atol=1e-12)
    np.testing.assert_allclose(rho_full[8:], np.zeros(6), atol=1e-12)
