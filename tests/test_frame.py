import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridstate.frame import (MACHINE_ROT90, ROT90, as_complex,
                             block_rotation_generator,
                             machine_rotation_generator, real_blocks, rot,
                             rotate_pairs, rvec, wrap_angle)

angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_rot_zero_is_identity():
    np.testing.assert_array_equal(rot(0.0), np.eye(2))


def test_rot_quarter_turn_is_rot90():
    np.testing.assert_allclose(rot(np.pi / 2), ROT90, atol=1e-15)
    np.testing.assert_array_equal(ROT90, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_rot_inverse_is_transpose():
    np.testing.assert_allclose(rot(0.7) @ rot(-0.7), np.eye(2), atol=1e-15)


def test_rot_orthogonal_on_grid():
    for theta in np.linspace(-np.pi, np.pi, 100):
        R = rot(theta)
        np.testing.assert_allclose(R.T @ R, np.eye(2), atol=1e-14)
        assert np.isclose(np.linalg.det(R), 1.0, atol=1e-14)


def test_rot_derivative_matches_generator():
    theta = 0.9
    for h in (1e-4, 1e-5, 1e-6):
        fd = (rot(theta + h) - rot(theta)) / h
        err = np.max(np.abs(fd - ROT90 @ rot(theta)))
        assert err < 2.0 * h  # first-order scheme


def test_rvec_cardinal_points():
    np.testing.assert_allclose(rvec(0.0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(rvec(np.pi), [-1.0, 0.0], atol=1e-15)


@given(angles)
def test_rvec_unit_norm(theta):
    assert np.isclose(np.linalg.norm(rvec(theta)), 1.0, atol=1e-12)


@given(angles)
def test_rot_applied_to_unit_vector(theta):
    np.testing.assert_allclose(rot(theta) @ [1.0, 0.0], rvec(theta),
                               atol=1e-15)


def test_non_finite_angle_rejected():
    with pytest.raises(ValueError):
        rot(np.nan)
    with pytest.raises(ValueError):
        rvec(np.inf)


def test_block_generator_small_cases():
    np.testing.assert_array_equal(block_rotation_generator(1), ROT90)
    J2 = block_rotation_generator(2)
    expect = np.zeros((4, 4))
    expect[:2, :2] = ROT90
    expect[2:, 2:] = ROT90
    np.testing.assert_array_equal(J2, expect)


def test_block_generator_squares_to_minus_identity():
    J = block_rotation_generator(3)
    np.testing.assert_array_equal(J @ J + np.eye(6), np.zeros((6, 6)))
    np.testing.assert_array_equal(J + J.T, np.zeros((6, 6)))


def test_block_generator_commutes_with_paired_diagonals():
    rng = np.random.default_rng(1)
    n = 4
    J = block_rotation_generator(n)
    D = np.kron(np.diag(rng.uniform(-2, 2, n)), np.eye(2))
    np.testing.assert_array_equal(J @ D, D @ J)


def test_zero_size_generators_rejected():
    with pytest.raises(ValueError):
        block_rotation_generator(0)
    with pytest.raises(ValueError):
        machine_rotation_generator(0)


def test_machine_generator_structure():
    J1 = machine_rotation_generator(1)
    np.testing.assert_array_equal(J1, MACHINE_ROT90)
    assert J1[2:, :].sum() == 0.0 and J1[:, 2:].sum() == 0.0

    J2 = machine_rotation_generator(2)
    np.testing.assert_array_equal(J2 + J2.T, np.zeros((10, 10)))
    assert np.linalg.matrix_rank(J2) == 4


def test_machine_generator_block_action():
    J = machine_rotation_generator(1)
    out = J @ np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_array_equal(out, [-2.0, 1.0, 0.0, 0.0, 0.0])


def test_rotate_pairs_matches_generator():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(8)
    np.testing.assert_allclose(rotate_pairs(w),
                               block_rotation_generator(4) @ w, atol=1e-15)


def test_wrap_angle_half_open_interval():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * np.pi + 0.25) == pytest.approx(0.25)
    assert -np.pi < wrap_angle(-123.456) <= np.pi


def test_real_blocks_act_like_the_complex_matrix():
    rng = np.random.default_rng(3)
    for shape in ((1, 1), (3, 3), (4, 2), (2, 5)):
        Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = rng.standard_normal(2 * shape[1])
        np.testing.assert_allclose(real_blocks(Y) @ w,
                                   (Y @ as_complex(w)).view(float),
                                   rtol=0, atol=1e-14)
        np.testing.assert_array_equal(real_blocks(Y)[:2, :2],
                                      [[Y[0, 0].real, -Y[0, 0].imag],
                                       [Y[0, 0].imag, Y[0, 0].real]])


def test_real_blocks_of_a_real_matrix_is_kron_identity():
    rng = np.random.default_rng(4)
    E = rng.integers(-1, 2, (5, 3)).astype(float)
    np.testing.assert_array_equal(real_blocks(E), np.kron(E, np.eye(2)))

