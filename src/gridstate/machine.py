"""Synchronous machine constants: winding inductances and validation.

Per-machine state is the rotor angle theta, rotor speed omega, and five
winding currents ordered (i_alpha, i_beta, i_f, i_d, i_q): the two stator
currents, the excitation current, and the two short-circuited damper
currents. All quantities are SI; there is no per-unit normalization.

The winding inductance factors as L(theta) = T(theta) L0 T(theta)^T with
T = blockdiag(R(theta), I_3) orthogonal and L0 = L(0) constant (Park's
transform: R. H. Park, "Two-reaction theory of synchronous machines", AIEE
Trans. 1929). T commutes with the stator rotation generator J and with the
winding resistances, so torque, induced voltage and the current derivative
take closed forms in the rotor frame i_r = T^T i:

    torque          (L0 i_r) . (J i_r)
    induced voltage omega T (J L0 - L0 J) i_r
    L(theta)^-1 w   T L0^-1 T^T w

and L(theta) is positive definite at every angle exactly when L0 is.
:mod:`gridstate.system` folds these forms into one constant operator per
machine on the rotor-frame currents and voltages; :func:`inductance_matrix`
is the direct L(theta) the identity suite holds the factorization against.
"""

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

# (name, lower bound is strict) sign domains; saliency may be zero.
_POSITIVE_FIELDS = (
    "m", "d", "r_s", "r_f", "r_d", "r_q",
    "l_s", "l_f", "l_d", "l_q", "l_fd", "l_sf", "l_sd", "l_sq",
)


@dataclass(frozen=True)
class MachineParams:
    """Electrical and mechanical constants of one synchronous machine.

    m, d          rotor inertia and mechanical damping
    r_s           stator winding resistance (per axis)
    r_f, r_d, r_q excitation and damper winding resistances
    l_s, l_sa     stator self inductance and rotor saliency (l_sa >= 0)
    l_f, l_d, l_q rotor self inductances
    l_fd          excitation-damper mutual inductance
    l_sf, l_sd, l_sq  stator-rotor mutual inductances
    """

    m: float
    d: float
    r_s: float
    r_f: float
    r_d: float
    r_q: float
    l_s: float
    l_sa: float
    l_f: float
    l_d: float
    l_q: float
    l_fd: float
    l_sf: float
    l_sd: float
    l_sq: float

    def resistance_diag(self):
        """Winding resistances as the diagonal of the 5x5 resistance matrix
        (one row per machine for constants from :func:`stack_params`)."""
        return np.stack([self.r_s, self.r_s, self.r_f, self.r_d, self.r_q], -1)

    def rotor_frame_inductance(self):
        """L0 = L(0), the winding inductance in the rotor frame: stator
        diag(l_s + l_sa, l_s - l_sa), the mutual coupling and the rotor
        block, assembled without rotating anything. For constants from
        :func:`stack_params`, one matrix per machine, shape (n_g, 5, 5)."""
        L = np.zeros(np.shape(self.l_s) + (5, 5))
        L[..., 0, 0] = self.l_s + self.l_sa
        L[..., 1, 1] = self.l_s - self.l_sa
        L[..., 0, 2] = L[..., 2, 0] = self.l_sf
        L[..., 0, 3] = L[..., 3, 0] = self.l_sd
        L[..., 1, 4] = L[..., 4, 1] = -self.l_sq
        L[..., 2, 2], L[..., 3, 3], L[..., 4, 4] = self.l_f, self.l_d, self.l_q
        L[..., 2, 3] = L[..., 3, 2] = self.l_fd
        return L


_FIELD_VALUES = attrgetter(*(f.name for f in fields(MachineParams)))


def stack_params(machines):
    """The constants of several machines as one :class:`MachineParams`
    whose fields are (n_g,) float arrays, machine k at index k: the form the
    array code reads, so ``p.r_s * i_s`` is one expression over machines."""
    return MachineParams(*np.array([_FIELD_VALUES(p) for p in machines],
                                   dtype=float).T.copy())


@dataclass(frozen=True)
class ParamViolation:
    kind: str  # "sign" or "positive_definite"
    message: str
    theta: float | None = None
    eigenvalue: float | None = None


def inductance_matrix(p, theta):
    """The paper's winding inductance L(theta), assembled entry by entry
    with the stator saliency turning at 2 theta and the stator-rotor
    coupling at theta. Constants from :func:`stack_params` and angles
    (n_g,) give one matrix per machine, shape (n_g, 5, 5)."""
    c, s = np.cos(theta), np.sin(theta)
    sal_c, sal_s = p.l_sa * np.cos(2.0 * theta), p.l_sa * np.sin(2.0 * theta)
    L = np.zeros(np.broadcast(p.l_s, theta).shape + (5, 5))
    L[..., 0, 0], L[..., 1, 1] = p.l_s + sal_c, p.l_s - sal_c
    L[..., 0, 1] = L[..., 1, 0] = sal_s
    L[..., 0, 2] = L[..., 2, 0] = c * p.l_sf
    L[..., 1, 2] = L[..., 2, 1] = s * p.l_sf
    L[..., 0, 3] = L[..., 3, 0] = c * p.l_sd
    L[..., 1, 3] = L[..., 3, 1] = s * p.l_sd
    L[..., 0, 4] = L[..., 4, 0] = s * p.l_sq
    L[..., 1, 4] = L[..., 4, 1] = -c * p.l_sq
    L[..., 2, 2], L[..., 3, 3], L[..., 4, 4] = p.l_f, p.l_d, p.l_q
    L[..., 2, 3] = L[..., 3, 2] = p.l_fd
    return L


def turn_stator(w, z):
    """Copy of the winding blocks ``w`` (..., 5) with each stator pair, read
    as the complex number w_alpha + j w_beta, multiplied by ``z``: T(theta) w
    for z = e^{j theta}, and the rotor-frame view T(theta)^T w for its
    conjugate. The rotor entries are left alone, so z = 1j is not the stator
    generator J, which zeroes them."""
    w = np.array(w, dtype=float, order="C")
    # Complex view of the pairs from the row strides; numpy < 1.23 cannot
    # .view() the strided slice w[..., :2] as complex.
    pairs = np.ndarray(w.shape[:-1], complex, w, strides=w.strides[:-1])
    pairs *= z
    return w


def stator_frame_inductance(L0, theta):
    """T(theta) L0 T(theta)^T: rotor-frame inductances L0 (..., 5, 5) turned
    to the stator frame at rotor angles theta (...)."""
    z = np.exp(1j * np.asarray(theta))[..., None]
    L0_Tt = turn_stator(L0, z)
    return turn_stator(np.swapaxes(L0_Tt, -1, -2), z).swapaxes(-1, -2)


def validate_params(p):
    """Check sign domains and positive definiteness of the inductances.

    L(theta) = T L0 T^T with T orthogonal, so L(theta) is positive definite
    at every rotor angle exactly when L0 = L(0) is: one Cholesky of L0
    decides it. Returns None if everything passes, otherwise the first
    violation found; a positive-definiteness violation reports the smallest
    eigenvalue of L0, which every L(theta) shares.
    """
    for name in _POSITIVE_FIELDS:
        value = getattr(p, name)
        if not np.isfinite(value) or value <= 0.0:
            return ParamViolation("sign", f"{name} must be > 0, got {value!r}")
    if not np.isfinite(p.l_sa) or p.l_sa < 0.0:
        return ParamViolation("sign", f"l_sa must be >= 0, got {p.l_sa!r}")

    theta = 0.0
    L0 = p.rotor_frame_inductance()
    try:
        np.linalg.cholesky(L0)
    except np.linalg.LinAlgError:
        lam = float(np.linalg.eigvalsh(L0)[0])
        return ParamViolation(
            "positive_definite",
            f"inductance matrix not positive definite at "
            f"theta={theta:.6f} (smallest eigenvalue {lam:.3e})",
            theta=theta,
            eigenvalue=lam,
        )
    return None
