"""Correctness checks the benchmark runs on every run.

Each check returns ``(ok, detail)``. The oracles here are independent of
the package: the phasor solve reads the system document, not the parsed
system.
"""

import math

import numpy as np

RESIDUAL_TOL = 1e-9      # |residual|_inf <= tol * tolerance_scale
DRIFT_TOL = 1e-6         # the CLI's default `verify --tol`
PHASOR_TOL = 1e-9        # relative network-voltage agreement
CONTROL_MARGIN = 1e3     # negative controls fail by at least this factor


class AnisotropicLoad:
    """Non-conforming load: scales the two axes differently, so it does not
    commute with rotations. Installed through ``PowerSystem.with_loads``."""

    def __init__(self, ga=1.0, gb=2.0):
        self.ga, self.gb = ga, gb

    def current(self, v):
        return np.array([self.ga * v[0], self.gb * v[1]])


def residual_check(gs, sys_, ss):
    rho = float(np.max(np.abs(gs.system.residual(sys_, ss.x, ss.u,
                                                 ss.omega0))))
    scale = gs.system.tolerance_scale(ss.x, ss.u)
    return rho <= RESIDUAL_TOL * scale, f"residual {rho:.3e} scale {scale:.3e}"


def drift_check(metrics, omega0):
    """The four deviations `gridstate verify` bounds, against DRIFT_TOL."""
    worst = max(metrics.state_deviation, metrics.voltage_magnitude_deviation,
                metrics.residual,
                metrics.frequency_deviation / max(1.0, abs(omega0)))
    return worst <= DRIFT_TOL, f"worst drift {worst:.3e}"


def result_reload_check(gs, sys_, ss, reloaded):
    """A result file must rebuild the state and input bit for bit; angles
    come back wrapped, as the file reports them."""
    x0, u, omega0 = reloaded
    expected = ss.x.copy()
    sl = sys_.layout.sl_theta
    expected[sl] = [float(gs.wrap_angle(t)) for t in expected[sl]]
    ok = (np.array_equal(x0, expected) and np.array_equal(u, ss.u)
          and omega0 == ss.omega0)
    return ok, "result file reloads bit-exactly" if ok else "reload differs"


def trajectory_equal(a, b):
    ok = np.array_equal(a.times, b.times) and np.array_equal(a.states,
                                                             b.states)
    return ok, "trajectory matches bit-exactly" if ok else "trajectory differs"


def phasor_voltages(doc):
    """Bus voltages of an impedance-only system file, solved as complex
    phasors: Y v = 0 on the load buses with the machine buses pinned."""
    omega0 = doc["omega0"]
    ids = [bus["id"] for bus in doc["buses"]]
    index = {bid: k for k, bid in enumerate(ids)}
    Y = np.zeros((len(ids), len(ids)), dtype=complex)
    for k, bus in enumerate(doc["buses"]):
        Y[k, k] += 1j * omega0 * bus["capacitance"]
        if "load" in bus:
            params = bus["load"]["params"]
            Y[k, k] += params["g"] + 1j * params["b"]
    for line in doc["lines"]:
        a, b = index[line["from"]], index[line["to"]]
        y = 1.0 / (line["resistance"] + 1j * omega0 * line["inductance"])
        Y[a, a] += y
        Y[b, b] += y
        Y[a, b] -= y
        Y[b, a] -= y
    v = np.zeros(len(ids), dtype=complex)
    pinned = []
    for gv in doc["operating_point"]["generator_voltages"]:
        k = index[gv["bus"]]
        pinned.append(k)
        v[k] = gv["magnitude"] * np.exp(1j * math.radians(gv["angle_deg"]))
    free = [k for k in range(len(ids)) if k not in pinned]
    if free:
        v[free] = np.linalg.solve(Y[np.ix_(free, free)],
                                  -Y[np.ix_(free, pinned)] @ v[pinned])
    return dict(zip(ids, v))


def phasor_check(sys_, ss, doc):
    oracle = phasor_voltages(doc)
    pairs = ss.x[sys_.layout.sl_v]
    solved = pairs[0::2] + 1j * pairs[1::2]
    ref = np.array([oracle[bid] for bid in sys_.bus_ids])
    err = float(np.max(np.abs(solved - ref)) / np.max(np.abs(ref)))
    return err <= PHASOR_TOL, f"phasor relative error {err:.3e}"
