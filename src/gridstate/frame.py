"""Planar rotation primitives for the stationary alpha-beta frame.

Every AC quantity in the model is a pair (alpha, beta); the 90-degree
rotation matrix plays the role the imaginary unit plays in complex phasor
analysis. This module owns that encoding: :func:`as_complex` reads stacked
pairs as complex numbers alpha + j beta, and :func:`real_blocks` writes a
complex matrix back as the real matrix that acts on stacked pairs, so
``real_blocks(Y) @ w`` is ``Y @ as_complex(w)`` read as pairs. Angles are
stored unwrapped; wrap only at reporting boundaries.
"""

import numpy as np

# 90-degree rotation of a planar pair.
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])

# Action of ROT90 on a 5-component machine current block: the stator pair
# rotates, the three rotor currents are left alone.
MACHINE_ROT90 = np.zeros((5, 5))
MACHINE_ROT90[:2, :2] = ROT90


def wrap_angle(theta):
    """Wrap an angle (or array of angles) to (-pi, pi]."""
    return -(np.remainder(np.pi - np.asarray(theta), 2.0 * np.pi) - np.pi)


def as_complex(pairs):
    """(alpha, beta) pairs stacked along the last axis as complex numbers
    alpha + j beta; a view of ``pairs`` when it is contiguous float64."""
    return np.ascontiguousarray(pairs, dtype=float).view(complex)


def real_blocks(Y):
    """Real form of a complex (or real) matrix on stacked pairs: each entry
    g + j b becomes the 2x2 block [[g, -b], [b, g]]."""
    Y = np.asarray(Y)
    g, b = Y.real, Y.imag
    out = np.empty((Y.shape[0], 2, Y.shape[1], 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = g
    out[:, 0, :, 1] = -b
    out[:, 1, :, 0] = b
    return out.reshape(2 * Y.shape[0], 2 * Y.shape[1])


def rotate_pairs(w):
    """Apply (I kron ROT90) to planar pairs stacked along the last axis,
    without building the matrix."""
    out = np.empty_like(w)
    out[..., 0::2] = -w[..., 1::2]
    out[..., 1::2] = w[..., 0::2]
    return out
