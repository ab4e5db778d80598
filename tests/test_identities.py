import numpy as np
import pytest

import gridstate.system as system
from gridstate.fileio import load_system_file
from gridstate.identities import run_identity_suite

from conftest import AnisotropicLoad, ring_mesh

PARK_ROW = "inductance factors as T L0 T^T"
POWER_ROW = "power balance along the field"
RESIDUAL_ROWS = {"residual equals mass-matrix field gap",
                 "residual rotates along flow"}


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


def test_machine_rows_fail_when_inductance_stops_factoring(three_bus,
                                                           monkeypatch):
    # The Park row is where the paper's L(theta) meets the T L0 T^T turn
    # the system runs. Saliency turning at the rotor angle instead of twice
    # it breaks the factoring; the rows on the running code cannot see it.
    import gridstate.identities as identities
    from gridstate.machine import inductance_matrix

    def unfactored(p, theta):
        L = inductance_matrix(p, theta)
        sal_c, sal_s = p.l_sa * np.cos(theta), p.l_sa * np.sin(theta)
        L[..., 0, 0], L[..., 1, 1] = p.l_s + sal_c, p.l_s - sal_c
        L[..., 0, 1] = L[..., 1, 0] = sal_s
        return L

    monkeypatch.setattr(identities, "inductance_matrix", unfactored)
    sys_, _ = three_bus
    rows = run_identity_suite(sys_, n_samples=40, seed=0)
    assert {r.name for r in rows if not r.passed} == {PARK_ROW}


def _negate_k0(field, res):
    field[:, system._WINDINGS, system._OMEGA_I_R] *= -1.0
    res[:, system._WINDINGS, system._OMEGA_I_R] *= -1.0


def _negate_torque(field, res):
    field[:, system._TORQUE] *= -1.0
    res[:, system._TORQUE] *= -1.0


@pytest.mark.parametrize("mutate", [_negate_k0, _negate_torque],
                         ids=["K0", "torque"])
def test_power_row_catches_sign_flips_in_rotor_operators(fixture_path,
                                                         monkeypatch, mutate):
    # A sign flip in the rotor-frame operators leaves the field and the
    # residual consistent with each other, and both still turn along the
    # flow; only the energy the field stores against the power it takes
    # tells the flipped machine from the model.
    build = system._rotor_operators

    def flipped(L0, r):
        field, res, turn = build(L0, r)
        mutate(field, res)
        return field, res, turn

    monkeypatch.setattr(system, "_rotor_operators", flipped)
    sys_, _ = load_system_file(fixture_path)
    rows = run_identity_suite(sys_, n_samples=40, seed=0)
    failed = [r for r in rows if not r.passed]
    assert [r.name for r in failed] == [POWER_ROW]
    assert failed[0].max_defect >= 1e3 * failed[0].tolerance


def test_residual_rows_catch_a_turn_the_wrong_way(three_bus, monkeypatch):
    # Turning the stator into the rotor frame by e^{+j theta} instead of
    # e^{-j theta} breaks the residual's defining equation and its rotation
    # along the flow, and the field's power balance with them.
    machines = system._machines

    def turned_back(sys_, x, omega, u, omega0=None):
        x = np.array(x)
        x[..., sys_.layout.sl_theta] *= -1.0
        return machines(sys_, x, omega, u, omega0)

    monkeypatch.setattr(system, "_machines", turned_back)
    sys_, _ = three_bus
    rows = run_identity_suite(sys_, n_samples=40, seed=0)
    assert {r.name for r in rows if not r.passed} == RESIDUAL_ROWS | {POWER_ROW}


def test_flow_row_fails_with_anisotropic_load(three_bus):
    # The residual turns with the flow only if every load commutes with
    # rotations; an anisotropic load breaks that row and no other.
    sys_, _ = three_bus
    bad = sys_.with_loads([sys_.loads[0], sys_.loads[1], AnisotropicLoad()])
    rows = run_identity_suite(bad, n_samples=40, seed=0)
    assert {r.name for r in rows if not r.passed} == \
        {"residual rotates along flow"}


BUS_ROW = "bus selector commutes with rotations"
INCIDENCE_ROW = "incidence commutes with rotations"
EXCITATION_ROW = "rotation annihilates excitation injection"
FLOW_ROW = "residual rotates along flow"
MASS_ROW = "residual equals mass-matrix field gap"


def _swap_injected_pairs(monkeypatch):
    # Each machine injects (i_beta, i_alpha) into its bus rows.
    bus_currents = system._bus_currents
    monkeypatch.setattr(system, "_bus_currents", lambda sys_, i, v, i_T:
                        bus_currents(sys_, i[..., [1, 0, 2, 3, 4]], v, i_T))


def _swap_incidence_pairs(monkeypatch):
    # The residual's incidence reads and writes every endpoint pair as
    # (beta, alpha): each 2x2 block of E on pairs maps (a, b) to (b, a).
    build = system.PowerSystem.__init__

    def swapped(self, *args):
        build(self, *args)
        ends = self._line_ends
        self._line_ends = ends.reshape(2, -1, 2)[..., ::-1].reshape(ends.shape)

    monkeypatch.setattr(system.PowerSystem, "__init__", swapped)


def _excite_stator_row(monkeypatch):
    # v_f enters the stator alpha winding row instead of the field row, in
    # the residual's operator and, through -L0^-1, in the field's.
    build = system._rotor_operators

    def moved(L0, r):
        field, res, turn = build(L0, r)
        v_f, windings = system._V_F, system._WINDINGS
        res[:, [0, 2], v_f] = res[:, [2, 0], v_f]
        field[:, windings, v_f] = (-np.linalg.inv(L0)
                                   @ res[:, windings, v_f, None])[..., 0]
        return field, res, turn

    monkeypatch.setattr(system, "_rotor_operators", moved)


def _swap_line_pair_columns(monkeypatch):
    # The field's fused rows read line 1's current pair as (beta, alpha).
    build = system._field_rows

    def swapped(sys_):
        cols, values, starts = build(sys_)
        a = sys_.layout.sl_iT.start
        return np.where(cols == a, a + 1, np.where(cols == a + 1, a, cols)), \
            values, starts

    monkeypatch.setattr(system, "_field_rows", swapped)


# The bus-selector and incidence mutants reach only the residual, which
# stops matching the field; the fused-row mutant reaches only the field.
@pytest.mark.parametrize("mutate, own, failing", [
    (_swap_injected_pairs, BUS_ROW, {BUS_ROW, FLOW_ROW, MASS_ROW}),
    (_swap_incidence_pairs, INCIDENCE_ROW, {INCIDENCE_ROW, FLOW_ROW, MASS_ROW}),
    (_swap_line_pair_columns, INCIDENCE_ROW,
     {INCIDENCE_ROW, MASS_ROW, POWER_ROW}),
    (_excite_stator_row, EXCITATION_ROW, {EXCITATION_ROW, POWER_ROW}),
], ids=["bus-selector", "incidence", "fused-rows", "excitation"])
def test_structural_rows_catch_their_mutations(fixture_path, monkeypatch,
                                               mutate, own, failing):
    # Each structural row reads the operator the field and residual run,
    # so a mutation there fails that row and no other structural row.
    mutate(monkeypatch)
    sys_, _ = load_system_file(fixture_path)
    rows = {r.name: r for r in run_identity_suite(sys_, n_samples=40, seed=0)}
    assert {name for name, r in rows.items() if not r.passed} == failing
    assert rows[own].max_defect >= 1.0


def test_structural_rows_read_exactly_zero(three_bus):
    mesh, _ = ring_mesh(24, ("impedance", "current", "power"), seed=3)
    for sys_ in (three_bus[0], mesh):
        rows = {r.name: r.max_defect
                for r in run_identity_suite(sys_, n_samples=20, seed=0)}
        assert [rows[name] for name in (BUS_ROW, INCIDENCE_ROW,
                                        EXCITATION_ROW)] == [0.0] * 3
