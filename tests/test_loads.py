import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstate.errors import LoadDomainError, ValidationError
from gridstate.loads import Load, LoadBank, equivariance_defect

from conftest import AnisotropicLoad
from oracles import (OracleLoad, load_current, load_power,
                     looped_equivariance_defect, rot, rotation_commutator)

finite_pairs = st.tuples(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
).filter(lambda v: v[0] ** 2 + v[1] ** 2 > 1e-4)


def test_no_load_draws_nothing():
    np.testing.assert_array_equal(load_current(Load.none(), [3.0, -4.0]),
                                  [0.0, 0.0])
    np.testing.assert_array_equal(load_current(Load.none(), [0.0, 0.0]),
                                  [0.0, 0.0])


def test_resistive_identity_and_dissipation():
    ld = Load.impedance(1.0, 0.0)
    i = load_current(ld, [2.0, 0.0])
    np.testing.assert_allclose(i, [2.0, 0.0], atol=1e-15)
    assert i @ [2.0, 0.0] == pytest.approx(4.0)


def test_impedance_at_zero_voltage():
    np.testing.assert_array_equal(
        load_current(Load.impedance(0.5, -0.2), [0.0, 0.0]), [0.0, 0.0])


def test_constant_power_halves_current_at_double_voltage():
    ld = Load.constant_power(1.0, 0.0)
    i = load_current(ld, [2.0, 0.0])
    np.testing.assert_allclose(i, [0.5, 0.0], atol=1e-15)
    # The drawn active power is the defining invariant.
    assert i @ [2.0, 0.0] == pytest.approx(1.0)


def test_power_values():
    assert load_power(Load.impedance(1.0, 0.0), [1.0, 0.0]) == \
        pytest.approx((1.0, 0.0))
    p, q = load_power(Load.constant_power(3.0, -1.0), [0.7, 1.9])
    assert (p, q) == pytest.approx((3.0, -1.0))


def test_power_matches_current_dot_voltage():
    rng = np.random.default_rng(20)
    models = [Load.impedance(0.8, -0.3), Load.constant_current(1.2, 0.4),
              Load.constant_power(2.0, 0.7)]
    for _ in range(100):
        v = rng.uniform(-5, 5, 2)
        if np.linalg.norm(v) < 0.01:
            continue
        for ld in models:
            p, _ = load_power(ld, v)
            assert load_current(ld, v) @ v == pytest.approx(p, rel=1e-12,
                                                      abs=1e-12)


def test_singular_models_reject_low_voltage():
    for ld in (Load.constant_current(1.0, 0.0, v_min=0.5),
               Load.constant_power(1.0, 0.0, v_min=0.5)):
        with pytest.raises(LoadDomainError):
            load_current(ld, [0.1, 0.0])
        load_current(ld, [0.6, 0.0])  # inside the domain


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, args, position", [
    (make, args, k) for make, args in (
        (Load.impedance, (1.0, 0.0)),
        (Load.constant_current, (1.0, 0.0, 0.5)),
        (Load.constant_power, (1.0, 0.0, 0.5)))
    for k in range(len(args))])
def test_non_finite_parameters_rejected(make, args, position, bad):
    # Every coefficient and v_min: a NaN v_min would switch the domain
    # floor off, and the solve would end in a non-finite residual.
    make(*args)
    args = args[:position] + (bad,) + args[position + 1:]
    with pytest.raises(ValidationError):
        make(*args)


def test_nonphysical_parameters_rejected():
    with pytest.raises(ValidationError):
        Load.impedance(-0.1, 0.0)
    with pytest.raises(ValidationError):
        Load.constant_power(-1.0, 0.0)
    with pytest.raises(ValidationError):
        Load.constant_current(1.0, 0.0, v_min=0.0)


@given(finite_pairs, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_shipped_models_commute_with_rotations(v, phi):
    v = np.array(v)
    R = rot(phi)
    for ld in (Load.impedance(0.5, 0.2), Load.constant_current(1.0, -0.5, 1e-3),
               Load.constant_power(2.0, 1.0, 1e-3)):
        np.testing.assert_allclose(load_current(ld, R @ v),
                                   R @ load_current(ld, v), atol=1e-10)


@given(finite_pairs)
def test_dissipation_inequality(v):
    v = np.array(v)
    for ld in (Load.impedance(0.5, -0.9), Load.constant_current(1.0, 2.0, 1e-3),
               Load.constant_power(2.0, -3.0, 1e-3)):
        assert load_current(ld, v) @ v >= -1e-12


@given(finite_pairs, st.floats(min_value=-np.pi, max_value=np.pi))
def test_current_magnitude_depends_only_on_voltage_magnitude(v, phi):
    v = np.array(v)
    ld = Load.constant_power(1.5, 0.5, 1e-3)
    a = np.linalg.norm(load_current(ld, v))
    b = np.linalg.norm(load_current(ld, rot(phi) @ v))
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_equivariance_defect_small_for_conforming_models():
    assert equivariance_defect(OracleLoad(Load.impedance(1.0, -0.4)),
                               [2.0, 1.0]) <= 1e-12
    assert equivariance_defect(OracleLoad(Load.constant_power(2.0, 0.3)),
                               [1.0, 0.0],
                               n_samples=720) <= 1e-12


def test_equivariance_defect_flags_anisotropic_model():
    ld = AnisotropicLoad(1.0, 2.0)
    v = np.array([1.0, 0.0])
    defect = equivariance_defect(ld, v, n_samples=360)
    # Direct grid evaluation of the commutator as the oracle.
    expected = max(
        np.linalg.norm(ld.current(rot(phi) @ v) - rot(phi) @ ld.current(v))
        for phi in np.linspace(0, 2 * np.pi, 360, endpoint=False))
    assert defect == pytest.approx(expected)
    assert defect > 0.4


@pytest.mark.parametrize("v", [[1.0, 0.0], [-0.3, 2.5], [40.0, -7.0]])
def test_rotation_commutator_vanishes_only_on_conforming_models(v):
    # The infinitesimal form of the rotation probe. A shipped load commutes
    # with rotations, so its central difference reads rounding and the
    # O(t^2) step error only; the anisotropic (a, b) load's commutator is
    # (b - a) (v_beta, v_alpha), of size |b - a| |v|.
    v = np.array(v)
    for ld in (Load.impedance(0.8, -0.3), Load.constant_current(1.2, 0.4),
               Load.constant_power(2.0, 0.7)):
        size = np.linalg.norm(load_current(ld, v))
        assert np.linalg.norm(rotation_commutator(OracleLoad(ld), v)) \
            <= 1e-9 * size
    np.testing.assert_allclose(
        rotation_commutator(AnisotropicLoad(1.0, 2.0), v), [v[1], v[0]],
        rtol=1e-9, atol=1e-9 * np.linalg.norm(v))


# No deadline: the looped oracle makes up to 4 x 720 scalar calls per draw.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(finite_pairs, st.floats(min_value=-2.0, max_value=2.0),
       st.sampled_from([1, 7, 360, 720]))
def test_batched_probe_matches_looped_oracle(v, log_scale, n_samples):
    v = np.array(v) * 10.0**log_scale
    shipped = [Load.impedance(0.8, -0.3), Load.constant_current(1.2, 0.4, 1e-9),
               Load.constant_power(2.0, 0.7, 1e-9)]
    for ld in map(OracleLoad, shipped):
        assert abs(equivariance_defect(ld, v, n_samples)
                   - looped_equivariance_defect(ld, v, n_samples)) <= 1e-12
    ld = AnisotropicLoad(1.0, 2.0)
    assert equivariance_defect(ld, v, n_samples) == pytest.approx(
        looped_equivariance_defect(ld, v, n_samples), rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(min_value=-np.pi, max_value=np.pi),
       st.floats(min_value=-2.0, max_value=2.0), st.integers(0, 2**32 - 1))
def test_shipped_bank_commutes_with_rotations(phi, log_scale, seed):
    # i(e^{j phi} v) = e^{j phi} i(v) for y |v|^-k v at k = 0, 1, 2: what
    # lets the certificate skip the rotation probe on shipped loads.
    rng = np.random.default_rng(seed)
    shipped = [Load.impedance(0.8, -0.3),
               Load.constant_current(1.2, 0.4, 1e-9),
               Load.constant_power(2.0, 0.7, 1e-9)] * 2
    bank = LoadBank(shipped, range(len(shipped)), 0)
    v = 10.0**log_scale * rng.uniform(0.5, 2.0, len(shipped)) \
        * np.exp(1j * rng.uniform(-np.pi, np.pi, len(shipped)))
    turn = np.exp(1j * phi)
    i = bank.admittance(v) * v
    np.testing.assert_allclose(bank.admittance(turn * v) * (turn * v),
                               turn * i, rtol=1e-14, atol=0.0)
