"""Planar rotation primitives for the stationary alpha-beta frame.

Every AC quantity in the model is a pair (alpha, beta); the 90-degree
rotation matrix plays the role the imaginary unit plays in complex phasor
analysis. Angles are stored unwrapped; wrap only at reporting boundaries.
"""

import numpy as np

# 90-degree rotation of a planar pair.
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])

# Action of ROT90 on a 5-component machine current block: the stator pair
# rotates, the three rotor currents are left alone.
MACHINE_ROT90 = np.zeros((5, 5))
MACHINE_ROT90[:2, :2] = ROT90


def _require_finite(theta):
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"angle must be finite, got {theta!r}")


def rot(theta):
    """2x2 rotation matrix by ``theta`` radians."""
    _require_finite(theta)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rvec(theta):
    """Unit vector (cos theta, sin theta)."""
    _require_finite(theta)
    return np.array([np.cos(theta), np.sin(theta)])


def wrap_angle(theta):
    """Wrap an angle (or array of angles) to (-pi, pi]."""
    return -(np.remainder(np.pi - np.asarray(theta), 2.0 * np.pi) - np.pi)


def block_rotation_generator(n):
    """I_n kron ROT90: simultaneous 90-degree rotation of n planar pairs."""
    if n < 1:
        raise ValueError(f"need at least one planar pair, got n={n}")
    return np.kron(np.eye(int(n)), ROT90)


def machine_rotation_generator(n_g):
    """I_ng kron MACHINE_ROT90 for a stacked machine current vector."""
    if n_g < 1:
        raise ValueError(f"need at least one machine, got n_g={n_g}")
    return np.kron(np.eye(int(n_g)), MACHINE_ROT90)


def rotate_pairs(w):
    """Apply (I kron ROT90) to planar pairs stacked along the last axis.

    Equivalent to ``block_rotation_generator(n) @ w`` for a flat vector of
    n pairs, without building the matrix.
    """
    out = np.empty_like(w)
    out[..., 0::2] = -w[..., 1::2]
    out[..., 1::2] = w[..., 0::2]
    return out
