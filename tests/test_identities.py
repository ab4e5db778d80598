import numpy as np

from gridstate.identities import run_identity_suite

from conftest import AnisotropicLoad


def test_suite_passes_on_fixture(three_bus):
    sys_, _ = three_bus
    rows = run_identity_suite(sys_, n_samples=120, seed=0)
    assert len(rows) >= 6
    for row in rows:
        assert row.passed, f"{row.name}: defect {row.max_defect:.3e}"


def test_suite_is_deterministic(three_bus):
    sys_, _ = three_bus
    a = run_identity_suite(sys_, n_samples=40, seed=7)
    b = run_identity_suite(sys_, n_samples=40, seed=7)
    assert [(r.name, r.max_defect) for r in a] == \
        [(r.name, r.max_defect) for r in b]


def test_suite_passes_across_seeds(three_bus):
    # The identities are universal; changing the seed only changes the
    # sample points.
    sys_, _ = three_bus
    for seed in (1, 2, 3):
        rows = run_identity_suite(sys_, n_samples=60, seed=seed)
        assert all(r.passed for r in rows)


def test_ellipse_bound_attained_within_samples(three_bus):
    # The lower bound is tight: over a fine angle grid the squared radius
    # comes close to it.
    from gridstate.identities import random_valid_params
    from gridstate.steady_state import recovery_parts
    rng = np.random.default_rng(9)
    p = random_valid_params(rng)
    v = complex(*rng.uniform(-3, 3, 2))
    i_s = complex(*rng.uniform(-3, 3, 2))
    a, b = recovery_parts(p, v, i_s, 120.0)
    theta = np.linspace(-np.pi, np.pi, 720)
    radii = np.abs(np.exp(-1j * theta) * a + np.exp(1j * theta) * b) ** 2
    bound = (abs(a) - abs(b)) ** 2
    assert min(radii) >= bound - 1e-12
    assert min(radii) <= bound + 0.01 * max(1.0, bound)


def test_machine_rows_fail_when_inductance_stops_factoring(three_bus,
                                                           monkeypatch):
    # The rotor-frame forms satisfy the flow identities for any L0; the
    # machine rows must still fail when L(theta) is not T L0 T^T. Saliency
    # turning at the rotor angle instead of twice it breaks the factoring.
    import gridstate.identities as identities
    from gridstate.frame import rot
    from gridstate.machine import inductance_matrix

    def unfactored(p, theta):
        L = inductance_matrix(p, theta)
        L[:2, :2] = p.l_s * np.eye(2) \
            + rot(theta) @ np.diag([p.l_sa, -p.l_sa])
        return L

    monkeypatch.setattr(identities, "inductance_matrix", unfactored)
    sys_, _ = three_bus
    rows = run_identity_suite(sys_, n_samples=40, seed=0)
    failed = {r.name for r in rows if not r.passed}
    assert failed == {"torque constant along rotating flow",
                      "induced voltage rotates along flow"}


def test_flow_row_fails_with_anisotropic_load(three_bus):
    # The residual turns with the flow only if every load commutes with
    # rotations; an anisotropic load breaks that row and no other.
    sys_, _ = three_bus
    bad = sys_.with_loads([sys_.loads[0], sys_.loads[1], AnisotropicLoad()])
    rows = run_identity_suite(bad, n_samples=40, seed=0)
    assert {r.name for r in rows if not r.passed} == \
        {"residual rotates along flow"}
