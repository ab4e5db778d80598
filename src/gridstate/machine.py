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


_FIELDS = tuple(f.name for f in fields(MachineParams))
_FIELD_VALUES = attrgetter(*_FIELDS)
# Sign domains in checking order: > 0, then l_sa >= 0 (saliency may be 0).
_SIGN_FIELDS = tuple(name for name in _FIELDS if name != "l_sa") + ("l_sa",)


def stack_params(machines):
    """The constants of several machines as one :class:`MachineParams`
    whose fields are (n_g,) float arrays, machine k at index k: the form the
    array code reads, so ``p.r_s * i_s`` is one expression over machines."""
    rows = np.array([_FIELD_VALUES(p) for p in machines], dtype=float)
    return MachineParams(*rows.reshape(-1, len(_FIELDS)).T.copy())


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


def validate_params(p, L0=None):
    """Check sign domains and positive definiteness of the inductances of
    one machine, or of all machines of a :func:`stack_params` stack in one
    pass; ``L0`` is their rotor-frame inductance when the caller has it.

    L(theta) = T L0 T^T with T orthogonal, so L(theta) is positive definite
    at every rotor angle exactly when L0 = L(0) is: one batched Cholesky of
    L0 decides it, and only if it fails are machines taken one at a time.
    Per machine: None if everything passes, else its first violation; a
    positive-definiteness violation reports the smallest eigenvalue of L0,
    which every L(theta) shares. A stack gives a list, one per machine.
    """
    values = np.array([getattr(p, name) for name in _SIGN_FIELDS],
                      dtype=float).reshape(len(_SIGN_FIELDS), -1)
    ok = np.isfinite(values) & (values > 0.0)
    ok[-1] |= values[-1] == 0.0
    out = [None] * values.shape[1]
    for k in np.flatnonzero(~ok.all(axis=0)).tolist():
        name = _SIGN_FIELDS[int(np.argmin(ok[:, k]))]
        value = getattr(p, name)  # as given, for its repr
        value = value[k].item() if np.ndim(value) else value
        out[k] = ParamViolation("sign", f"{name} must be "
                                f"{'>=' if name == 'l_sa' else '>'} 0, "
                                f"got {value!r}")
    L0 = (p.rotor_frame_inductance() if L0 is None else L0).reshape(-1, 5, 5)
    signed = [k for k, found in enumerate(out) if found is None]
    try:
        np.linalg.cholesky(L0[signed])
    except np.linalg.LinAlgError:
        for k in signed:
            try:
                np.linalg.cholesky(L0[k])
            except np.linalg.LinAlgError:
                lam = float(np.linalg.eigvalsh(L0[k])[0])
                out[k] = ParamViolation(
                    "positive_definite",
                    "inductance matrix not positive definite at theta="
                    f"0.000000 (smallest eigenvalue {lam:.3e})",
                    theta=0.0, eigenvalue=lam)
    return out if np.ndim(p.l_s) else out[0]
