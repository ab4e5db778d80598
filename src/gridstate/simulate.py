"""Fixed-step integration, the analytic rotating reference, drift metrics.

Certification runs need deterministic, order-known integration error, so
the integrator is classical fixed-step RK4 with no adaptivity; stiffness is
mild at the system sizes this package targets and the step is the user's.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import LoadDomainError, SolverError
from .frame import rotate_pairs
from .system import residual, tolerance_scale, vector_field


@dataclass
class SimConfig:
    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not self.dt <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and at least one step")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class Trajectory:
    times: np.ndarray   # (m,)
    states: np.ndarray  # (m, n_x)
    inputs: np.ndarray  # constant input vector


def rk4_step(sys, x, u, dt):
    """One classical Runge-Kutta step of the power system dynamics under
    constant input: x + (dt / 6) (k1 + 2 (k2 + k3) + k4), the stages
    combined in place in that order of operations."""
    k = []
    try:
        k.append(vector_field(sys, x, u))
        k.append(vector_field(sys, x + 0.5 * dt * k[0], u))
        k.append(vector_field(sys, x + 0.5 * dt * k[1], u))
        k.append(vector_field(sys, x + dt * k[2], u))
    except LoadDomainError as err:
        raise LoadDomainError(f"stage {len(k) + 1} of RK4 step: {err}",
                              bus=err.bus) from err
    k1, k2, k3, k4 = k
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    k2 += x
    return k2


def simulate(sys, x0, u, cfg):
    """Integrate from x0 under constant input, recording every
    ``record_every`` steps (step 0 included). The state is checked at steps
    1, 2, 4, 8, ... and at the last, so a run that leaves the finite states
    at step s stops by step 2s; it raises :class:`SolverError` naming the
    first recorded time whose state is not finite, else the time it
    stopped at."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    u = np.asarray(u, dtype=float)
    x = np.array(x0, dtype=float)

    times = [0.0]
    states = [x.copy()]
    for step in range(1, n_steps + 1):
        try:
            x = rk4_step(sys, x, u, cfg.dt)
        except LoadDomainError as err:
            raise LoadDomainError(
                f"simulation failed at t={step * cfg.dt:.6e}: {err}", bus=err.bus
            ) from err
        if step % cfg.record_every == 0:
            times.append(step * cfg.dt)
            states.append(x.copy())
        if not step & (step - 1) and not np.isfinite(x).all():
            break
    states = np.array(states)
    bad = np.flatnonzero(~np.isfinite(states).all(axis=-1))
    if bad.size or not np.isfinite(x).all():
        t = times[bad[0]] if bad.size else step * cfg.dt
        raise SolverError(f"simulation diverged: state not finite at "
                          f"t={t:.6e}; a smaller dt may keep it finite")
    return Trajectory(times=np.array(times), states=states, inputs=u.copy())


def reference_trajectory(sys, x0, omega0, t):
    """Closed-form state at time t of the rotating steady-state flow from x0:
    angles advance uniformly, speeds hold, and every planar pair rotates
    rigidly by omega0 * t. An array of times gives one state per time,
    shape t.shape + (n_x,)."""
    lay = sys.layout
    theta0, omega_b, i0, v0, iT0 = lay.split(np.asarray(x0, dtype=float))
    t = np.asarray(t, dtype=float)
    c, s = np.cos(omega0 * t)[..., None], np.sin(omega0 * t)[..., None]
    blocks = i0.reshape(sys.n_g, 5)
    i = np.tile(blocks, t.shape + (1, 1))
    stator = blocks[:, :2].ravel()
    i[..., :2] = (c * stator + s * rotate_pairs(stator)).reshape(
        t.shape + (sys.n_g, 2))
    return lay.pack(theta0 + omega0 * t[..., None], omega_b, i,
                    c * v0 + s * rotate_pairs(v0),
                    c * iT0 + s * rotate_pairs(iT0))


@dataclass
class DriftMetrics:
    """Worst-case deviations of a trajectory from the rotating reference.

    All state deviations are relative to the scale gauge; voltage magnitude
    variation is relative per bus; frequency deviation is absolute in rad/s.
    """

    state_deviation: float
    voltage_magnitude_deviation: float
    frequency_deviation: float
    residual: float
    worst_sample: int

    def as_dict(self):
        return asdict(self)


def drift_metrics(sys, traj, x0, omega0):
    """Measure a trajectory against the analytic rotating flow from x0.

    Drift is measured against the rotating reference, not against the frozen
    initial point: membership in the steady-state behavior is a property of
    the whole trajectory. Every sample is evaluated in one batch; the worst
    sample is the first with the largest state deviation.
    """
    lay = sys.layout
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(traj.states, dtype=float)
    scale = tolerance_scale(x0, traj.inputs)
    vmag0 = np.maximum(np.linalg.norm(x0[lay.sl_v].reshape(-1, 2), axis=-1),
                       1e-12)
    vmag = np.linalg.norm(x[:, lay.sl_v].reshape(len(x), -1, 2), axis=-1)
    ref = reference_trajectory(sys, x0, omega0, traj.times)
    state_dev = np.max(np.abs(x - ref), axis=-1) / scale
    rho = residual(sys, x, traj.inputs, omega0)
    return DriftMetrics(
        state_deviation=float(np.max(state_dev)),
        voltage_magnitude_deviation=float(np.max(np.abs(vmag - vmag0) / vmag0)),
        frequency_deviation=float(np.max(np.abs(x[:, lay.sl_omega] - omega0))),
        residual=float(np.max(np.abs(rho))) / scale,
        worst_sample=int(np.argmax(state_dev)),
    )
