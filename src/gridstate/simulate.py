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
        if not self.t_end / self.dt < np.inf:
            raise ValueError("t_end / dt must be a finite step count")
        # Steps, and states recorded: step 0, every record_every-th, the last.
        self.n_steps = round(self.t_end / self.dt)
        self.n_records = 1 - (-self.n_steps // self.record_every)


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
    ``record_every`` steps, step 0 and the last step too. The state is
    checked at steps 1, 2, 4, 8, ... and at the last, so a run that leaves
    the finite states at step s stops by step 2s; it raises
    :class:`SolverError` naming the first recorded time whose state is not
    finite, else the time it stopped at."""
    n_steps, every = cfg.n_steps, cfg.record_every
    u = np.asarray(u, dtype=float)
    x = np.array(x0, dtype=float)

    states = np.empty((cfg.n_records,) + x.shape)
    times = np.empty(len(states))
    states[0], times[0], n = x, 0.0, 1
    for step in range(1, n_steps + 1):
        try:
            x = rk4_step(sys, x, u, cfg.dt)
        except LoadDomainError as err:
            raise LoadDomainError(
                f"simulation failed at t={step * cfg.dt:.6e}: {err}", bus=err.bus
            ) from err
        if step % every == 0 or step == n_steps:
            states[n], times[n], n = x, step * cfg.dt, n + 1
        if not step & (step - 1) and not np.isfinite(x).all():
            break
    states, times = states[:n], times[:n]
    bad = np.flatnonzero(~np.isfinite(states).all(axis=-1))
    if bad.size or not np.isfinite(x).all():
        t = times[bad[0]] if bad.size else step * cfg.dt
        raise SolverError(f"simulation diverged: state not finite at "
                          f"t={t:.6e}; a smaller dt may keep it finite")
    return Trajectory(times=times, states=states, inputs=u.copy())


def reference_trajectory(sys, x0, omega0, t):
    """Closed-form state at time t of the rotating steady-state flow from x0:
    angles advance uniformly, the pairs p = x0[pair_rows] turn rigidly to
    cos(omega0 t) p + sin(omega0 t) J p, and the rest holds. An array of
    times gives one state per time, shape t.shape + (n_x,)."""
    lay = sys.layout
    x0 = np.asarray(x0, dtype=float)
    t = np.asarray(t, dtype=float)
    c, s = np.cos(omega0 * t)[..., None], np.sin(omega0 * t)[..., None]
    x = np.broadcast_to(x0, t.shape + x0.shape).copy()
    x[..., lay.sl_theta] += omega0 * t[..., None]
    p = x0[lay.pair_rows]
    turned = c * p
    turned += s * rotate_pairs(p)
    x[..., lay.pair_rows] = turned
    return x


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
    """Measure a trajectory against the analytic rotating flow from x0, the
    state at the first sample's time, whatever the samples' order.

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
    t = np.asarray(traj.times, dtype=float)
    ref = reference_trajectory(sys, x0, omega0, t - t[0])
    state_dev = np.max(np.abs(x - ref), axis=-1) / scale
    rho = residual(sys, x, traj.inputs, omega0)
    return DriftMetrics(
        state_deviation=float(np.max(state_dev)),
        voltage_magnitude_deviation=float(np.max(np.abs(vmag - vmag0) / vmag0)),
        frequency_deviation=float(np.max(np.abs(x[:, lay.sl_omega] - omega0))),
        residual=float(np.max(np.abs(rho))) / scale,
        worst_sample=int(np.argmax(state_dev)),
    )
